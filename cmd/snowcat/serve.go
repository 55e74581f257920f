package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"sync"
	"time"

	"snowcat/internal/cfg"
	"snowcat/internal/ctgraph"
	"snowcat/internal/fleet"
	"snowcat/internal/kernel"
	"snowcat/internal/pic"
	"snowcat/internal/serve"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
)

// serveFlags registers the serving knobs shared by the serve and loadgen
// subcommands and maps them onto a serve.Config.
func serveFlags(fs *flag.FlagSet) func() serve.Config {
	batch := fs.Int("max-batch", 32, "max graphs coalesced into one inference batch")
	waitMS := fs.Float64("wait-ms", 2, "max milliseconds a batch waits for more requests")
	queue := fs.Int("queue", 256, "admission queue depth (full queue sheds non-waiting requests)")
	deadlineMS := fs.Int("deadline-ms", 0, "default per-request deadline in milliseconds (0 = none)")
	cache := fs.Int("cache", 64, "BaseContext cache capacity in CTIs")
	workers := parallelFlag(fs)
	return func() serve.Config {
		return serve.Config{
			MaxBatch:   *batch,
			MaxWait:    time.Duration(*waitMS * float64(time.Millisecond)),
			Workers:    *workers,
			QueueDepth: *queue,
			Deadline:   time.Duration(*deadlineMS) * time.Millisecond,
			CacheSize:  *cache,
		}
	}
}

// serveModel loads the model file, or — when path is empty — builds a
// fresh untrained model over the kernel, so the serving stack can be
// exercised without a training run first.
func serveModel(k *kernel.Kernel, path string, seed uint64) (*pic.Model, error) {
	if path == "" {
		return pic.New(pic.Config{Dim: 12, Layers: 2, Seed: seed}), nil
	}
	return pic.LoadFile(path)
}

// newServerFromFlags assembles kernel, model, registry, and server.
func newServerFromFlags(seed uint64, size, model string, mkConfig func() serve.Config) (*serve.Server, *kernel.Kernel, error) {
	k, _, err := kernelFromFlags(seed, size)
	if err != nil {
		return nil, nil, err
	}
	m, err := serveModel(k, model, seed+70)
	if err != nil {
		return nil, nil, err
	}
	reg := serve.NewRegistry()
	if err := reg.Load("v1", m, pic.NewTokenCache(k, m.Vocab)); err != nil {
		return nil, nil, err
	}
	if _, err := reg.Activate("v1"); err != nil {
		return nil, nil, err
	}
	return serve.New(reg, mkConfig()), k, nil
}

func cmdServe(args []string) error {
	fs, seed := newFlagSet("serve")
	addr := fs.String("addr", "127.0.0.1:8334", "listen address")
	size := fs.String("size", "small", "kernel size preset")
	model := fs.String("model", "", "model file to serve (empty serves an untrained model)")
	duration := fs.Duration("duration", 0, "stop after this long (0 = run until interrupted)")
	mkConfig := serveFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, k, err := newServerFromFlags(*seed, *size, *model, mkConfig)
	if err != nil {
		return err
	}
	defer s.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Printf("serving %s (kernel %s, %d blocks) on http://%s\n",
		s.Registry().Active().Version, k.Version, k.NumBlocks(), ln.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	defer signal.Stop(stop)
	var timeout <-chan time.Time
	if *duration > 0 {
		timeout = time.After(*duration)
	}
	select {
	case err := <-errc:
		return err
	case <-stop:
		fmt.Println("interrupt: draining")
	case <-timeout:
	}
	// Stop accepting connections, then drain the batching pipeline.
	if err := hs.Shutdown(context.Background()); err != nil {
		return err
	}
	if err := s.Close(); err != nil {
		return err
	}
	st := s.Stats()
	fmt.Printf("served %d requests (%d graphs, mean batch %.1f)\n", st.Requests, st.Graphs, st.MeanBatch)
	return nil
}

func cmdLoadgen(args []string) error {
	fs, seed := newFlagSet("loadgen")
	addr := fs.String("addr", "", "server base URL, e.g. http://127.0.0.1:8334 (empty runs an in-process server)")
	size := fs.String("size", "small", "kernel size preset (must match the server's)")
	model := fs.String("model", "", "model file for the in-process server (empty uses an untrained model)")
	clients := fs.Int("clients", 8, "concurrent load-generating client slots")
	requests := fs.Int("requests", 200, "total requests across all clients")
	batch := fs.Int("batch", 8, "graphs per request")
	rate := fs.Float64("rate", 0, "offered requests/sec for open-loop Poisson arrivals (0 = closed-loop blast)")
	mkConfig := serveFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *clients <= 0 || *requests <= 0 || *batch <= 0 {
		return fmt.Errorf("-clients, -requests and -batch must be positive")
	}
	if *rate < 0 {
		return fmt.Errorf("-rate must be non-negative")
	}

	// Keep a handle on the in-process server (when there is one) so the
	// summary can report the server-observed latency histogram and the
	// error/shed rates alongside the client-observed percentiles.
	var inproc *serve.Server
	base := *addr
	if base == "" {
		s, _, err := newServerFromFlags(*seed, *size, *model, mkConfig)
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
		base = "http://" + ln.Addr().String()
		inproc = s
		fmt.Printf("in-process server on %s\n", base)
	}

	body, err := loadgenBody(*seed, *size, *batch)
	if err != nil {
		return err
	}

	var failures int
	if *rate > 0 {
		// Open loop: arrivals come from a seeded Poisson process and launch
		// on schedule whether or not earlier requests finished, so the
		// reported tail includes every queueing effect (see internal/fleet).
		hc := &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: *clients},
		}
		res, err := fleet.RunLoadgen(fleet.LoadgenConfig{
			Rate: *rate, Requests: *requests, Clients: *clients, Seed: *seed,
		}, 1, func(int) int { return 0 }, func(int) error {
			if !postOnce(hc, base+"/v1/predict", body) {
				return fmt.Errorf("request failed")
			}
			return nil
		})
		if err != nil {
			return err
		}
		failures = res.Errors
		fmt.Printf("open loop: offered %.0f req/s, achieved %.0f (%d clients, batch %d, %d requests, %d failed)\n",
			res.OfferedRPS, res.AchievedRPS, *clients, *batch, res.Requests, res.Errors)
		fmt.Printf("latency p50 %v  p90 %v  p99 %v  max %v\n",
			res.Aggregate.P50.Round(time.Microsecond), res.Aggregate.P90.Round(time.Microsecond),
			res.Aggregate.P99.Round(time.Microsecond), res.Aggregate.Max.Round(time.Microsecond))
		fmt.Printf("throughput %.0f graphs/sec (aggregate)\n", res.AchievedRPS*float64(*batch))
	} else {
		var lats []time.Duration
		lats, failures = blast(base, body, *clients, *requests)
		if len(lats) > 0 {
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			total := time.Duration(0)
			for _, l := range lats {
				total += l
			}
			graphs := len(lats) * *batch
			fmt.Printf("%d requests ok, %d failed (%d clients, batch %d)\n", len(lats), failures, *clients, *batch)
			fmt.Printf("latency p50 %v  p90 %v  p99 %v  mean %v\n",
				lats[len(lats)/2].Round(time.Microsecond),
				lats[len(lats)*90/100].Round(time.Microsecond),
				lats[len(lats)*99/100].Round(time.Microsecond),
				(total / time.Duration(len(lats))).Round(time.Microsecond))
			fmt.Printf("throughput %.0f graphs/sec (aggregate)\n",
				float64(graphs)/(total.Seconds()/float64(*clients)))
		}
	}
	if inproc != nil {
		printServerStats(inproc.Stats())
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d requests failed", failures, *requests)
	}
	return nil
}

// printServerStats summarises the server-observed side of a load run: the
// admission-to-reply latency histogram percentiles (which exclude the HTTP
// client stack) and the error/shed rates.
func printServerStats(st serve.StatsSnapshot) {
	fmt.Printf("server: %d requests, mean batch %.1f, p50 %.0fµs p90 %.0fµs p99 %.0fµs, error rate %.4f, shed rate %.4f\n",
		st.Requests, st.MeanBatch, st.LatencyP50US, st.LatencyP90US, st.LatencyP99US, st.ErrorRate, st.ShedRate)
}

// loadgenBody builds one /v1/predict body of `batch` real CT graphs from
// the kernel the server is expected to run.
func loadgenBody(seed uint64, size string, batch int) ([]byte, error) {
	k, _, err := kernelFromFlags(seed, size)
	if err != nil {
		return nil, err
	}
	gen := syz.NewGenerator(k, seed+71)
	a, b := gen.Generate(), gen.Generate()
	pa, err := syz.Run(k, a)
	if err != nil {
		return nil, err
	}
	pb, err := syz.Run(k, b)
	if err != nil {
		return nil, err
	}
	base := ctgraph.NewBuilder(k, cfg.Build(k)).BuildBase(ski.CTI{ID: 1, A: a, B: b}, pa, pb)
	sampler := ski.NewSampler(pa, pb, seed+72)
	var req serve.PredictRequest
	for i := 0; i < batch; i++ {
		req.Graphs = append(req.Graphs, serve.EncodeGraph(base.WithSchedule(sampler.Next())))
	}
	return json.Marshal(req)
}

// blast fires `requests` POSTs split across `clients` goroutines and
// returns per-request latencies plus the failure count.
func blast(base string, body []byte, clients, requests int) ([]time.Duration, int) {
	perClient := (requests + clients - 1) / clients
	lats := make([][]time.Duration, clients)
	fails := make([]int, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for r := 0; r < perClient && c*perClient+r < requests; r++ {
				start := time.Now()
				ok := postOnce(client, base+"/v1/predict", body)
				if ok {
					lats[c] = append(lats[c], time.Since(start))
				} else {
					fails[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	var all []time.Duration
	failures := 0
	for c := range lats {
		all = append(all, lats[c]...)
		failures += fails[c]
	}
	return all, failures
}

func postOnce(client *http.Client, url string, body []byte) bool {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var out serve.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return false
	}
	return resp.StatusCode == http.StatusOK && len(out.Scores) > 0
}
