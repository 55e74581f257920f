package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"time"

	"snowcat/internal/kernel"
	"snowcat/internal/serve"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
)

// cmdLoadgen drives open-loop (Poisson-arrival) /v1/predict_cti traffic
// through the HTTP client, either at a running server (-addr) or at the
// server `snowcat serve` builds, started in-process behind one loopback
// listener — the smallest end-to-end exercise of the serving stack: HTTP
// and JSON, admission, the CTI station and the scoring call.
func cmdLoadgen(args []string) error {
	fs, seed := newFlagSet("loadgen")
	addr := fs.String("addr", "", "server base URL, e.g. http://127.0.0.1:8334 (empty runs an in-process server)")
	size := fs.String("size", "small", "kernel size preset (must match the server's)")
	model := fs.String("model", "", "model file for the in-process server (empty uses an untrained model)")
	numCTIs := fs.Int("ctis", 32, "distinct CTIs in the traffic working set")
	schedules := fs.Int("schedules", 8, "schedules scored per request")
	rate := fs.Float64("rate", 1000, "offered requests/sec (open-loop Poisson arrivals)")
	requests := fs.Int("requests", 200, "total requests")
	clients := fs.Int("clients", 8, "concurrent client slots")
	mkConfig := serveFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *numCTIs <= 0 || *schedules <= 0 || *requests <= 0 || *clients <= 0 || *rate <= 0 {
		return fmt.Errorf("-ctis, -schedules, -requests, -clients and -rate must be positive")
	}
	cfg, err := mkConfig()
	if err != nil {
		return err
	}
	if *addr != "" {
		// The model and the serving flags configure the in-process server;
		// a running server has its own, so setting one would do nothing.
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "model", "queue", "deadline-ms", "cache", "parallel":
				if err == nil {
					err = fmt.Errorf("-%s configures the in-process server and cannot be used with -addr", f.Name)
				}
			}
		})
		if err != nil {
			return err
		}
	}

	url := *addr
	var k *kernel.Kernel
	if url == "" {
		s, sk, err := newServerFromFlags(*seed, *size, *model, cfg)
		if err != nil {
			return err
		}
		defer s.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: s.Handler()}
		go hs.Serve(ln)
		defer hs.Close()
		k, url = sk, "http://"+ln.Addr().String()
		fmt.Printf("in-process server (kernel %s, %d blocks) on %s\n", k.Version, k.NumBlocks(), url)
	} else if k, _, err = kernelFromFlags(*seed, *size); err != nil {
		return err
	}
	client := serve.NewHTTPClient(url)

	ctis, scheds, err := loadgenTraffic(k, *seed, *numCTIs, *schedules)
	if err != nil {
		return err
	}
	res, err := serve.RunLoadgen(serve.LoadgenConfig{
		Rate: *rate, Requests: *requests, Clients: *clients, Seed: *seed,
	}, func(i int) error {
		idx := i % *numCTIs
		_, err := client.PredictCTI(context.Background(), ctis[idx], scheds[idx], 0)
		return err
	})
	if err != nil {
		return err
	}

	fmt.Printf("open loop: offered %.0f req/s, achieved %.0f (%d clients, %d schedules, %d requests, %d failed)\n",
		res.OfferedRPS, res.AchievedRPS, *clients, *schedules, res.Requests, res.Errors)
	fmt.Printf("latency p50 %v  p90 %v  p99 %v  max %v\n",
		res.Aggregate.P50.Round(time.Microsecond), res.Aggregate.P90.Round(time.Microsecond),
		res.Aggregate.P99.Round(time.Microsecond), res.Aggregate.Max.Round(time.Microsecond))
	fmt.Printf("throughput %.0f graphs/sec\n", res.AchievedRPS*float64(*schedules))
	// The server-observed side: admission-to-reply percentiles (which
	// exclude the HTTP client stack), station hits and error/shed rates.
	if st, err := client.Stats(context.Background()); err != nil {
		fmt.Printf("statsz: %v\n", err)
	} else {
		hitRate := 0.0
		if st.StationHits+st.StationMisses > 0 {
			hitRate = float64(st.StationHits) / float64(st.StationHits+st.StationMisses)
		}
		fmt.Printf("server: %.1f graphs per request, p50 %.0fµs p99 %.0fµs, station hit rate %.3f, error rate %.4f, shed rate %.4f\n",
			st.MeanBatch, st.LatencyP50US, st.LatencyP99US, hitRate, st.ErrorRate, st.ShedRate)
	}
	if res.Errors > 0 {
		return fmt.Errorf("%d of %d requests failed", res.Errors, res.Requests)
	}
	return nil
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
