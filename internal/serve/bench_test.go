// Serving benchmarks drive the server through its exported API only, over
// real HTTP with the package's open-loop load generator.
package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"snowcat/internal/kernel"
	"snowcat/internal/pic"
	"snowcat/internal/serve"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
)

// The serving benchmark is open-loop: arrivals are drawn from a Poisson
// process and launched on schedule whether or not earlier requests have
// finished, so the measured tail includes every queueing effect — a
// closed loop would let a slow server throttle its own offered load and
// hide its queueing delay.
//
// Offered load is fixed per client slot (benchReqRate requests/s each),
// so rows with the same clients compare at equal request load — and
// equal sample budget per second of wall-clock — while the batch axis
// changes how many schedules, and so graphs, ride in one request. Every
// request is one real CTI: the server derives each schedule's graph from
// its station's cached base and scores it, about 0.1 ms per graph on its
// one worker. Utilisation stays low in every row but batch=32/clients=8,
// which offers ~6,200 graphs/s and keeps the worker about 80% busy, so
// there queueing sets the tail. The server never merges requests: the
// worker scores each queued request with its own PredictAllCtx call.
const benchReqRate = 25.0 // offered requests/s per client slot

// benchModel builds the serving benchmark model: a single-layer Dim-6
// model keeps scoring cheap, so the fixed per-request cost (TCP, HTTP
// framing, JSON, queue hand-off) stays visible next to it.
func benchModel(b *testing.B) (*kernel.Kernel, *pic.Model, *pic.TokenCache) {
	b.Helper()
	k := kernel.Generate(kernel.SmallConfig(5001))
	m := pic.New(pic.Config{Dim: 6, Layers: 1, Seed: 5002})
	return k, m, pic.NewTokenCache(k, m.Vocab)
}

// newBenchServer boots a fresh server per grid row, so the server-side
// latency histogram covers exactly that row's requests.
func newBenchServer(b *testing.B, k *kernel.Kernel, m *pic.Model, tc *pic.TokenCache) *serve.Server {
	b.Helper()
	reg := serve.NewRegistry()
	if err := reg.Load("bench", m, tc); err != nil {
		b.Fatal(err)
	}
	if _, err := reg.Activate("bench"); err != nil {
		b.Fatal(err)
	}
	s := serve.New(reg, serve.Config{Kernel: k, Workers: 1, QueueDepth: 4096})
	b.Cleanup(func() { s.Close() })
	return s
}

// benchBody encodes one /v1/predict_cti body: a CTI of two generated
// programs over the bench kernel with `batch` sampled schedules.
func benchBody(b *testing.B, k *kernel.Kernel, batch int) []byte {
	b.Helper()
	gen := syz.NewGenerator(k, 5003)
	sa, sb := gen.Generate(), gen.Generate()
	pa, err := syz.Run(k, sa)
	if err != nil {
		b.Fatal(err)
	}
	pb, err := syz.Run(k, sb)
	if err != nil {
		b.Fatal(err)
	}
	req := serve.PredictCTIRequest{CTI: serve.EncodeCTI(ski.CTI{ID: 1, A: sa, B: sb})}
	sampler := ski.NewSampler(pa, pb, 5004)
	for i := 0; i < batch; i++ {
		req.Schedules = append(req.Schedules, serve.EncodeSchedule(sampler.Next()))
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// BenchmarkServeHTTP measures served latency over real HTTP under
// open-loop Poisson load at batch sizes {1,8,32} (schedules per
// /v1/predict_cti request) and client-slot counts {1,8}. One op is one
// graph. `make bench-serve` captures the grid in BENCH_serve.json.
func BenchmarkServeHTTP(b *testing.B) {
	k, m, tc := benchModel(b)
	for _, batch := range []int{1, 8, 32} {
		body := benchBody(b, k, batch)
		for _, clients := range []int{1, 8} {
			b.Run(fmt.Sprintf("batch=%d/clients=%d", batch, clients), func(b *testing.B) {
				s := newBenchServer(b, k, m, tc)
				ts := httptest.NewServer(s.Handler())
				defer ts.Close()
				benchServeOpenLoop(b, s, ts, body, batch, clients)
			})
		}
	}
}

// benchServeOpenLoop fires requests of `batch` graphs at Poisson
// arrivals totalling benchReqRate*clients requests/s, with `clients`
// concurrently outstanding request slots.
func benchServeOpenLoop(b *testing.B, s *serve.Server, ts *httptest.Server, body []byte, batch, clients int) {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	post := func() error {
		resp, err := hc.Post(ts.URL+"/v1/predict_cti", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	// Fill the CTI station and open one warm TCP connection per client
	// slot, so neither the first profile nor connection setup lands in
	// the tail of a sparse row.
	var prime sync.WaitGroup
	for i := 0; i < clients; i++ {
		prime.Add(1)
		go func() {
			defer prime.Done()
			if err := post(); err != nil {
				b.Error(err)
			}
		}()
	}
	prime.Wait()
	if b.Failed() {
		return
	}

	// The workload is fixed by wall-clock budget, not b.N: the offered
	// rate is pinned, so sample count is rate × budget — rows with more
	// client slots earn more samples. Run with -benchtime 1x; ns/op is
	// not meaningful open-loop (latency and throughput are in the
	// reported metrics).
	rate := benchReqRate * float64(clients)
	requests := int(rate * 10)
	if requests < 300 {
		requests = 300
	}
	b.ResetTimer()
	res, err := serve.RunLoadgen(serve.LoadgenConfig{
		Rate:     rate,
		Requests: requests,
		Clients:  clients,
		Seed:     42,
	}, func(int) error { return post() })
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if res.Errors > 0 {
		b.Fatalf("%d of %d requests failed", res.Errors, res.Requests)
	}
	b.ReportMetric(res.AchievedRPS*float64(batch), "graphs-per-sec")
	b.ReportMetric(float64(res.Aggregate.P50)/1e3, "p50-us")
	b.ReportMetric(float64(res.Aggregate.P90)/1e3, "p90-us")
	b.ReportMetric(float64(res.Aggregate.P99)/1e3, "p99-us")

	// Server-observed latency (admission to reply: queue + scoring)
	// excludes the HTTP client stack and the load generator's own
	// scheduling, both of which pick up multi-millisecond stalls from
	// neighbours on a shared box.
	st := s.Stats()
	b.ReportMetric(st.LatencyP50US, "svr-p50-us")
	b.ReportMetric(st.LatencyP99US, "svr-p99-us")
}
