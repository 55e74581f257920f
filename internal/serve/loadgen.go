package serve

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"snowcat/internal/xrand"
)

// LoadgenConfig describes one open-loop load run. Open loop means arrival
// times are drawn up front from a Poisson process and requests launch at
// their scheduled instant whether or not earlier ones finished — the
// server's slowness cannot throttle the offered load, so tail latency
// reflects queueing honestly (a closed loop with N clients caps the
// outstanding requests at N and hides overload).
type LoadgenConfig struct {
	// Rate is the aggregate arrival rate in requests/second; must be
	// positive.
	Rate float64
	// Requests is the total request count; must be positive.
	Requests int
	// Clients bounds the concurrently outstanding requests (the simulated
	// client population). <= 0 selects 256. When all clients are busy at
	// an arrival instant, the request waits — that wait is part of its
	// measured latency, exactly like a connection-pool stall in a real
	// client.
	Clients int
	// Seed derives the arrival process; equal seeds draw equal schedules.
	Seed uint64
}

// Percentiles summarises a latency population exactly (sorted, not
// bucketed): the serving stats histogram is for cheap always-on counters,
// the load generator can afford exactness.
type Percentiles struct {
	N             int
	P50, P90, P99 time.Duration
	Max           time.Duration
}

// percentilesOf computes exact order statistics (nearest-rank).
func percentilesOf(lats []time.Duration) Percentiles {
	p := Percentiles{N: len(lats)}
	if len(lats) == 0 {
		return p
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := func(q float64) time.Duration {
		i := int(q * float64(len(sorted)))
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	p.P50, p.P90, p.P99 = rank(0.50), rank(0.90), rank(0.99)
	p.Max = sorted[len(sorted)-1]
	return p
}

// LoadgenResult aggregates one run: wall-clock, error count and exact
// latency percentiles.
type LoadgenResult struct {
	Requests  int
	Errors    int
	Elapsed   time.Duration
	Aggregate Percentiles
	// OfferedRPS is the configured arrival rate; AchievedRPS the measured
	// completion rate. A gap between them means the run ended overloaded.
	OfferedRPS  float64
	AchievedRPS float64
}

// RunLoadgen fires cfg.Requests requests at Poisson arrivals of cfg.Rate
// per second; do(i) performs request i. A non-nil error counts as a
// failure (its latency still records — errors that are fast-fail shed
// would otherwise flatter the tail).
//
// Latency is measured from the request's *scheduled* arrival, so time
// spent waiting for a free client goroutine counts — the open-loop
// discipline that makes coordinated omission impossible.
func RunLoadgen(cfg LoadgenConfig, do func(i int) error) (LoadgenResult, error) {
	if cfg.Rate <= 0 {
		return LoadgenResult{}, fmt.Errorf("serve: loadgen rate must be positive, got %v", cfg.Rate)
	}
	if cfg.Requests <= 0 {
		return LoadgenResult{}, fmt.Errorf("serve: loadgen request count must be positive, got %d", cfg.Requests)
	}
	clients := cfg.Clients
	if clients <= 0 {
		clients = 256
	}

	// Draw the whole arrival schedule up front: cumulative exponential
	// inter-arrival gaps at rate cfg.Rate.
	rng := xrand.New(cfg.Seed ^ 0x10adc0de)
	arrivals := make([]time.Duration, cfg.Requests)
	t := 0.0
	for i := range arrivals {
		t += rng.ExpFloat64() / cfg.Rate
		arrivals[i] = time.Duration(t * float64(time.Second))
	}

	// Per-request result slots: goroutines write disjoint indices, so the
	// collection needs no lock (wg.Wait orders the final reads).
	lats := make([]time.Duration, cfg.Requests)
	failed := make([]bool, cfg.Requests)

	sem := make(chan struct{}, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Requests; i++ {
		// Open loop: wait for the scheduled instant, then launch — even if
		// every in-flight request is still pending.
		if d := time.Until(start.Add(arrivals[i])); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		sem <- struct{}{} // client-pool stall: charged to the request below
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := do(i); err != nil {
				failed[i] = true
			}
			lats[i] = time.Since(start.Add(arrivals[i]))
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := LoadgenResult{
		Requests:   cfg.Requests,
		Elapsed:    elapsed,
		OfferedRPS: cfg.Rate,
	}
	for _, f := range failed {
		if f {
			res.Errors++
		}
	}
	if elapsed > 0 {
		res.AchievedRPS = float64(cfg.Requests) / elapsed.Seconds()
	}
	res.Aggregate = percentilesOf(lats)
	return res, nil
}
