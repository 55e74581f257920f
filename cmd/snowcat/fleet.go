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
	"snowcat/internal/strategy"
	"snowcat/internal/syz"
)

// cmdFleet boots an in-process N-shard prediction fleet, fronts every
// shard with its own HTTP listener, and drives open-loop (Poisson-arrival)
// predict_cti traffic through the ring-routed HTTP client — the smallest
// end-to-end exercise of the whole sharded serving stack: consistent-hash
// routing, per-shard connection pools, the CTI station, and (with -kill)
// shard loss and recovery under live load.
func cmdFleet(args []string) error {
	fs, seed := newFlagSet("fleet")
	shards := fs.Int("shards", 2, "fleet size (one serve server + HTTP listener per shard)")
	size := fs.String("size", "small", "kernel size preset")
	model := fs.String("model", "", "model file to serve (empty serves an untrained model)")
	numCTIs := fs.Int("ctis", 32, "distinct CTIs in the traffic working set")
	schedules := fs.Int("schedules", 2, "schedules scored per request")
	rate := fs.Float64("rate", 2000, "offered requests/sec (open-loop Poisson arrivals)")
	requests := fs.Int("requests", 500, "total requests")
	clients := fs.Int("clients", 32, "concurrent client slots")
	station := fs.Int("station", 64, "per-shard CTI station capacity")
	cache := fs.Int("cache", 64, "per-shard BaseContext cache capacity in CTIs")
	maxBatch := fs.Int("max-batch", 32, "per-shard max coalesced batch size")
	waitMS := fs.Float64("wait-ms", 2, "per-shard max batch hold in milliseconds")
	kill := fs.Int("kill", -1, "shard to kill a third of the way in and restart at two thirds (-1 = no chaos)")
	strat := strategyFlag(fs, "s1", "selection strategy spec (validated against the registry; the loadgen issues prediction traffic only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if strategyListed(*strat) {
		return nil
	}
	if _, err := strategy.New(*strat); err != nil {
		return err
	}
	if *shards <= 0 {
		return fmt.Errorf("-shards must be positive")
	}
	if *numCTIs <= 0 || *schedules <= 0 || *requests <= 0 || *clients <= 0 || *rate <= 0 {
		return fmt.Errorf("-ctis, -schedules, -requests, -clients and -rate must be positive")
	}
	if *kill >= *shards {
		return fmt.Errorf("-kill %d outside fleet of %d shards", *kill, *shards)
	}

	k, _, err := kernelFromFlags(*seed, *size)
	if err != nil {
		return err
	}
	m, err := serveModel(k, *model, *seed+70)
	if err != nil {
		return err
	}
	f, err := fleet.New(k, m, pic.NewTokenCache(k, m.Vocab), fleet.Config{
		Shards:      *shards,
		StationSize: *station,
		CacheSize:   *cache,
		MaxBatch:    *maxBatch,
		MaxWait:     time.Duration(*waitMS * float64(time.Millisecond)),
	})
	if err != nil {
		return err
	}
	defer f.Close()

	// One HTTP listener per shard. The handler resolves the shard's server
	// on every request so a killed shard answers 503 (shard down) and its
	// restarted replacement takes over on the same address.
	urls := make([]string, *shards)
	for i := range urls {
		i := i
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
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
		defer hs.Close()
		urls[i] = "http://" + ln.Addr().String()
	}
	client := serve.NewHTTPClient(urls, 0)
	fmt.Printf("fleet of %d shards (kernel %s, %d blocks)\n", *shards, k.Version, k.NumBlocks())

	ctis, scheds, err := fleetTraffic(k, *seed, *numCTIs, *schedules)
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
	}, *shards, shardOf, do)
	if err != nil {
		return err
	}

	fmt.Printf("open loop: offered %.0f req/s, achieved %.0f (%d clients, %d requests, %d failed)\n",
		res.OfferedRPS, res.AchievedRPS, *clients, res.Requests, res.Errors)
	fmt.Printf("aggregate latency p50 %v  p90 %v  p99 %v  max %v\n",
		res.Aggregate.P50.Round(time.Microsecond), res.Aggregate.P90.Round(time.Microsecond),
		res.Aggregate.P99.Round(time.Microsecond), res.Aggregate.Max.Round(time.Microsecond))
	stats := f.Stats()
	for s := 0; s < *shards; s++ {
		p, st := res.PerShard[s], stats[s]
		hitRate := 0.0
		if st.StationHits+st.StationMisses > 0 {
			hitRate = float64(st.StationHits) / float64(st.StationHits+st.StationMisses)
		}
		fmt.Printf("shard %d: %d requests, p50 %v p99 %v, station hit rate %.3f, shed rate %.4f\n",
			s, p.N, p.P50.Round(time.Microsecond), p.P99.Round(time.Microsecond), hitRate, st.ShedRate)
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

// fleetTraffic builds the request working set: numCTIs CTIs with
// perRequest schedules each, generated deterministically from the seed.
func fleetTraffic(k *kernel.Kernel, seed uint64, numCTIs, perRequest int) ([]ski.CTI, [][]ski.Schedule, error) {
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
