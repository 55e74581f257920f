package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"snowcat/internal/fleet"
	"snowcat/internal/kernel"
	"snowcat/internal/pic"
	"snowcat/internal/serve"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
)

// cmdLoadgen drives open-loop (Poisson-arrival) /v1/predict_cti traffic
// through the ring-routed HTTP client, either at a running server (-addr)
// or at an in-process fleet of -shards servers, each behind its own HTTP
// listener — the smallest end-to-end exercise of the serving stack:
// consistent-hash routing, per-shard connection pools, the CTI station,
// and (with -kill) shard loss and recovery under live load.
func cmdLoadgen(args []string) error {
	fs, seed := newFlagSet("loadgen")
	addr := fs.String("addr", "", "server base URL, e.g. http://127.0.0.1:8334 (empty runs an in-process fleet)")
	shards := fs.Int("shards", 1, "in-process fleet size (one server and HTTP listener per shard)")
	kill := fs.Int("kill", -1, "in-process shard to kill a third of the way in and restart at two thirds (-1 = no chaos)")
	size := fs.String("size", "small", "kernel size preset (must match the server's)")
	model := fs.String("model", "", "model file for the in-process fleet (empty uses an untrained model)")
	numCTIs := fs.Int("ctis", 32, "distinct CTIs in the traffic working set")
	schedules := fs.Int("schedules", 8, "schedules scored per request")
	rate := fs.Float64("rate", 1000, "offered requests/sec (open-loop Poisson arrivals)")
	requests := fs.Int("requests", 200, "total requests")
	clients := fs.Int("clients", 8, "concurrent client slots")
	mkConfig := serveFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *numCTIs <= 0 || *schedules <= 0 || *requests <= 0 || *clients <= 0 || *rate <= 0 || *shards <= 0 {
		return fmt.Errorf("-ctis, -schedules, -requests, -clients, -rate and -shards must be positive")
	}
	if *kill >= *shards {
		return fmt.Errorf("-kill %d outside fleet of %d shards", *kill, *shards)
	}
	if *addr != "" && (*shards != 1 || *kill >= 0) {
		return fmt.Errorf("-shards and -kill drive the in-process fleet; drop them or -addr")
	}

	k, _, err := kernelFromFlags(*seed, *size)
	if err != nil {
		return err
	}
	urls := []string{*addr}
	var f *fleet.Fleet
	if *addr == "" {
		m, err := serveModel(k, *model, *seed+70)
		if err != nil {
			return err
		}
		f, err = fleet.New(k, m, pic.NewTokenCache(k, m.Vocab), fleet.Config{Shards: *shards, Serve: mkConfig()})
		if err != nil {
			return err
		}
		defer f.Close()
		var stop func()
		if urls, stop, err = listenShards(f); err != nil {
			return err
		}
		defer stop()
		fmt.Printf("in-process fleet of %d shards (kernel %s, %d blocks)\n", *shards, k.Version, k.NumBlocks())
	}
	client := serve.NewHTTPClient(urls, 0)

	ctis, scheds, err := loadgenTraffic(k, *seed, *numCTIs, *schedules)
	if err != nil {
		return err
	}

	// Chaos schedule: kill a third of the way through the request stream,
	// restart at two thirds. Requests routed to the dead shard fail with
	// 503 in between — that window's error count is reported, and recovery
	// is verified with a must-succeed request after the run.
	killAt, restartAt := *requests/3, (*requests*2)/3
	do := func(i int) error {
		if *kill >= 0 {
			switch i {
			case killAt:
				f.Kill(*kill)
				fmt.Printf("chaos: killed shard %d at request %d\n", *kill, i)
			case restartAt:
				if err := f.Restart(*kill); err != nil {
					return err
				}
				fmt.Printf("chaos: restarted shard %d at request %d\n", *kill, i)
			}
		}
		idx := i % *numCTIs
		_, err := client.PredictCTI(context.Background(), ctis[idx], scheds[idx], 0)
		return err
	}
	shardOf := func(i int) int { return client.ShardFor(ctis[i%*numCTIs].ID) }

	res, err := fleet.RunLoadgen(fleet.LoadgenConfig{
		Rate: *rate, Requests: *requests, Clients: *clients, Seed: *seed,
	}, len(urls), shardOf, do)
	if err != nil {
		return err
	}

	fmt.Printf("open loop: offered %.0f req/s, achieved %.0f (%d clients, %d schedules, %d requests, %d failed)\n",
		res.OfferedRPS, res.AchievedRPS, *clients, *schedules, res.Requests, res.Errors)
	fmt.Printf("latency p50 %v  p90 %v  p99 %v  max %v\n",
		res.Aggregate.P50.Round(time.Microsecond), res.Aggregate.P90.Round(time.Microsecond),
		res.Aggregate.P99.Round(time.Microsecond), res.Aggregate.Max.Round(time.Microsecond))
	fmt.Printf("throughput %.0f graphs/sec (aggregate)\n", res.AchievedRPS*float64(*schedules))
	for s, p := range res.PerShard {
		// The server-observed side: admission-to-reply percentiles (which
		// exclude the HTTP client stack), station hits and error/shed rates.
		fmt.Printf("shard %d: %d requests, p50 %v p99 %v", s, p.N, p.P50.Round(time.Microsecond), p.P99.Round(time.Microsecond))
		st, err := client.Stats(context.Background(), s)
		if err != nil {
			fmt.Printf("; statsz: %v\n", err)
			continue
		}
		hitRate := 0.0
		if st.StationHits+st.StationMisses > 0 {
			hitRate = float64(st.StationHits) / float64(st.StationHits+st.StationMisses)
		}
		fmt.Printf("; server mean batch %.1f, p50 %.0fµs p99 %.0fµs, station hit rate %.3f, error rate %.4f, shed rate %.4f\n",
			st.MeanBatch, st.LatencyP50US, st.LatencyP99US, hitRate, st.ErrorRate, st.ShedRate)
	}

	if *kill >= 0 {
		// Recovery proof: a CTI owned by the killed shard must score again
		// through the restarted server on the old address.
		if err := verifyRecovery(client, ctis, scheds, *kill); err != nil {
			return fmt.Errorf("shard %d did not recover: %w", *kill, err)
		}
		fmt.Printf("recovery verified: shard %d serving again\n", *kill)
		return nil
	}
	if res.Errors > 0 {
		return fmt.Errorf("%d of %d requests failed", res.Errors, res.Requests)
	}
	return nil
}

// listenShards fronts every shard of the fleet with its own loopback HTTP
// listener and returns their base URLs in shard order, plus a func that
// closes them. The handler resolves the shard's server on every request,
// so a killed shard answers 503 (shard down) and its restarted
// replacement takes over on the same address.
func listenShards(f *fleet.Fleet) ([]string, func(), error) {
	var hss []*http.Server
	stop := func() {
		for _, hs := range hss {
			hs.Close()
		}
	}
	urls := make([]string, f.Shards())
	for i := range urls {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, nil, err
		}
		hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			s := f.Server(i)
			if s == nil {
				http.Error(w, `{"error":"shard down"}`, http.StatusServiceUnavailable)
				return
			}
			s.Handler().ServeHTTP(w, r)
		})}
		go hs.Serve(ln)
		hss = append(hss, hs)
		urls[i] = "http://" + ln.Addr().String()
	}
	return urls, stop, nil
}

// loadgenTraffic builds the request working set: numCTIs CTIs with
// perRequest schedules each, generated deterministically from the seed.
func loadgenTraffic(k *kernel.Kernel, seed uint64, numCTIs, perRequest int) ([]ski.CTI, [][]ski.Schedule, error) {
	gen := syz.NewGenerator(k, seed+81)
	ctis := make([]ski.CTI, 0, numCTIs)
	scheds := make([][]ski.Schedule, 0, numCTIs)
	for i := 0; i < numCTIs; i++ {
		a, b := gen.Generate(), gen.Generate()
		pa, err := syz.Run(k, a)
		if err != nil {
			return nil, nil, err
		}
		pb, err := syz.Run(k, b)
		if err != nil {
			return nil, nil, err
		}
		ctis = append(ctis, ski.CTI{ID: int64(i), A: a, B: b})
		sampler := ski.NewSampler(pa, pb, seed+uint64(i))
		ss := make([]ski.Schedule, perRequest)
		for j := range ss {
			ss[j] = sampler.Next()
		}
		scheds = append(scheds, ss)
	}
	return ctis, scheds, nil
}

// verifyRecovery scores one CTI owned by the restarted shard (when the
// working set maps any CTI there), proving the replacement server answers
// on the old address.
func verifyRecovery(client *serve.HTTPClient, ctis []ski.CTI, scheds [][]ski.Schedule, shard int) error {
	for i, cti := range ctis {
		if client.ShardFor(cti.ID) != shard {
			continue
		}
		_, err := client.PredictCTI(context.Background(), cti, scheds[i], 0)
		return err
	}
	return nil
}
