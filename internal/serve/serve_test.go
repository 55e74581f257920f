package serve

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"snowcat/internal/campaign"
	"snowcat/internal/cfg"
	"snowcat/internal/ctgraph"
	"snowcat/internal/kernel"
	"snowcat/internal/mlpct"
	"snowcat/internal/pic"
	"snowcat/internal/predictor"
	"snowcat/internal/ski"
	"snowcat/internal/strategy"
	"snowcat/internal/syz"
)

// fixture is the shared serving test rig: one small kernel, untrained
// (random-weight) models — the strictest equivalence fixture, any FP
// reordering would show — and CT graphs derived from per-CTI bases so the
// BaseContext cache path is exercised.
type fixture struct {
	k      *kernel.Kernel
	model  *pic.Model
	tc     *pic.TokenCache
	graphs []*ctgraph.Graph
	bases  []*ctgraph.Base
}

// tinyModel builds an untrained model over k's vocabulary.
func tinyModel(k *kernel.Kernel, seed uint64) (*pic.Model, *pic.TokenCache) {
	m := pic.New(pic.Config{Dim: 12, Layers: 2, LR: 3e-3, Epochs: 1, Seed: seed, PosWeight: 8})
	return m, pic.NewTokenCache(k, m.Vocab)
}

// newFixture builds ctis CTIs with schedsPer candidate schedules each.
func newFixture(t testing.TB, seed uint64, ctis, schedsPer int) *fixture {
	t.Helper()
	k := kernel.Generate(kernel.SmallConfig(seed))
	m, tc := tinyModel(k, seed+1)
	f := &fixture{k: k, model: m, tc: tc}
	gen := syz.NewGenerator(k, seed+2)
	builder := ctgraph.NewBuilder(k, cfg.Build(k))
	for i := 0; i < ctis; i++ {
		a, b := gen.Generate(), gen.Generate()
		cti := ski.CTI{ID: int64(i), A: a, B: b}
		pa, err := syz.Run(k, a)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := syz.Run(k, b)
		if err != nil {
			t.Fatal(err)
		}
		base := builder.BuildBase(cti, pa, pb)
		f.bases = append(f.bases, base)
		sampler := ski.NewSampler(pa, pb, seed+3+uint64(i))
		for j := 0; j < schedsPer; j++ {
			f.graphs = append(f.graphs, base.WithSchedule(sampler.Next()))
		}
	}
	if len(f.graphs) == 0 {
		t.Fatal("fixture built no graphs")
	}
	return f
}

// newServer builds a server with f.model active as version v1.
func (f *fixture) newServer(t testing.TB, c Config) *Server {
	t.Helper()
	reg := NewRegistry()
	if err := reg.Load("v1", f.model, f.tc); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Activate("v1"); err != nil {
		t.Fatal(err)
	}
	s := New(reg, c)
	t.Cleanup(func() { s.Close() })
	return s
}

// direct computes the reference predictions the service must match bit for
// bit: the in-process fast path with a per-CTI BaseContext.
func (f *fixture) direct(workers int) [][]float64 {
	out := make([][]float64, len(f.graphs))
	for _, base := range f.bases {
		bc := f.model.NewBaseContext(base, f.tc)
		var gs []*ctgraph.Graph
		var idx []int
		for i, g := range f.graphs {
			if g.DerivedFrom(base) {
				gs = append(gs, g)
				idx = append(idx, i)
			}
		}
		for j, sc := range f.model.PredictAllCtx(gs, f.tc, workers, bc) {
			out[idx[j]] = sc
		}
	}
	return out
}

// TestServedMatchesDirectPredict pins the acceptance criterion: served
// predictions are bit-identical to direct pic.PredictAllCtx, in both the
// deterministic synchronous mode and the queued mode, at worker counts 1
// and 4 (run under -race by `make test`).
func TestServedMatchesDirectPredict(t *testing.T) {
	f := newFixture(t, 101, 3, 4)
	want := f.direct(1)
	for _, workers := range []int{1, 4} {
		if got := f.direct(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("direct reference diverged at workers=%d", workers)
		}
	}
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"sync-w1", Config{Sync: true, Workers: 1}},
		{"sync-w4", Config{Sync: true, Workers: 4}},
		{"async-w1", Config{Workers: 1}},
		{"async-w4", Config{Workers: 4}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			s := f.newServer(t, mode.cfg)

			// One request per graph, concurrently, so the async mode
			// actually queues.
			got := make([][]float64, len(f.graphs))
			var wg sync.WaitGroup
			for i, g := range f.graphs {
				wg.Add(1)
				go func(i int, g *ctgraph.Graph) {
					defer wg.Done()
					resp, err := s.Predict(context.Background(), &Request{Graphs: []*ctgraph.Graph{g}, Wait: true})
					if err != nil {
						t.Errorf("graph %d: %v", i, err)
						return
					}
					if resp.Model != "v1" {
						t.Errorf("graph %d: served by %q", i, resp.Model)
						return
					}
					got[i] = resp.Scores[0]
				}(i, g)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("served predictions diverged from direct PredictAllCtx")
			}

			// And the whole set as one request, which mixes three bases:
			// the graphs of the second and third compute their features
			// in full.
			resp, err := s.Predict(context.Background(), &Request{Graphs: f.graphs, Wait: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(resp.Scores, want) {
				t.Fatal("batched served predictions diverged from direct PredictAllCtx")
			}
		})
	}
}

// TestClientMatchesDirectPIC runs a full campaign (explore.Walk, MLPCT
// strategy, ledger accounting) against the in-process service client and
// pins its history to the same campaign run with the direct in-process
// predictor — the "consumers run unmodified" contract.
func TestClientMatchesDirectPIC(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(7))
	m, tc := tinyModel(k, 8)
	r := campaign.NewRunner(k)
	conf := campaign.Config{
		Name: "MLPCT", Seed: 11, NumCTIs: 4,
		Opts: mlpct.Options{ExecBudget: 6, InferenceCap: 40, Batch: 4},
		Cost: campaign.PaperCosts(),
	}

	// The strategy is stateful (its memory spans CTIs), so each run gets a
	// fresh one; any residue would change selections regardless of scores.
	conf.Strat = strategy.NewS1()
	conf.Pred = predictor.NewPIC(m, tc, "PIC")
	want, err := r.Run(conf)
	if err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	if err := reg.Load("v1", m, tc); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Activate("v1"); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{Sync: true, Workers: 1})
	defer s.Close()
	conf.Strat = strategy.NewS1()
	conf.Pred = NewClient(s, "PIC")
	got, err := r.Run(conf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("campaign via serve client diverged from direct predictor\nwant: %+v\ngot:  %+v", want, got)
	}
	if st := s.Stats(); st.CacheHits == 0 || st.CacheMisses == 0 {
		t.Fatalf("BaseContext cache unused by campaign: hits=%d misses=%d", st.CacheHits, st.CacheMisses)
	}
}

// TestHotSwapUnderLoad swaps the active model mid-load and asserts the
// acceptance criterion: no dropped requests and no mixed-version
// responses — every response carries exactly one version, and its scores
// are bit-identical to that version's direct predictions.
func TestHotSwapUnderLoad(t *testing.T) {
	f := newFixture(t, 201, 2, 3)
	m2, tc2 := tinyModel(f.k, 999) // different weights: versions are distinguishable
	s := f.newServer(t, Config{Workers: 2})
	if err := s.Registry().Load("v2", m2, tc2); err != nil {
		t.Fatal(err)
	}

	wantV1 := make([][]float64, len(f.graphs))
	wantV2 := make([][]float64, len(f.graphs))
	for i, g := range f.graphs {
		wantV1[i] = f.model.Predict(g, f.tc)
		wantV2[i] = m2.Predict(g, tc2)
	}

	const clients = 4
	const perClient = 40
	type obs struct {
		graph   int
		version string
		scores  []float64
	}
	results := make([][]obs, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				i := (c*perClient + r) % len(f.graphs)
				resp, err := s.Predict(context.Background(), &Request{Graphs: []*ctgraph.Graph{f.graphs[i]}, Wait: true})
				if err != nil {
					t.Errorf("client %d request %d: %v", c, r, err)
					return
				}
				results[c] = append(results[c], obs{graph: i, version: resp.Model, scores: resp.Scores[0]})
			}
		}(c)
	}
	// Swap mid-flight.
	time.Sleep(2 * time.Millisecond)
	if err := s.Swap("v2"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	seen := map[string]int{}
	for c := range results {
		if len(results[c]) != perClient {
			t.Fatalf("client %d: %d of %d responses", c, len(results[c]), perClient)
		}
		for _, o := range results[c] {
			seen[o.version]++
			var want []float64
			switch o.version {
			case "v1":
				want = wantV1[o.graph]
			case "v2":
				want = wantV2[o.graph]
			default:
				t.Fatalf("response carries unknown version %q", o.version)
			}
			if !reflect.DeepEqual(o.scores, want) {
				t.Fatalf("graph %d labelled %s: scores do not match that version's model (mixed-version response?)",
					o.graph, o.version)
			}
		}
	}
	if seen["v2"] == 0 {
		t.Fatal("no responses served by v2 after the swap")
	}
	got := s.Registry().List()
	if len(got) != 2 || got[0].Version != "v1" || got[0].Active || got[1].Version != "v2" || !got[1].Active {
		t.Fatalf("registry after swap: %+v, want v1 inactive and v2 active", got)
	}
}

// TestAdmissionControl exercises the bounded queue: while the dispatcher
// is stuck scoring a large request, a depth-1 queue sheds the overflow
// with ErrOverloaded.
func TestAdmissionControl(t *testing.T) {
	f := newFixture(t, 301, 1, 2)
	s := f.newServer(t, Config{Workers: 1, QueueDepth: 1})

	// A large request occupies the dispatcher long enough to fill the
	// queue behind it.
	big := make([]*ctgraph.Graph, 3000)
	for i := range big {
		big[i] = f.graphs[i%len(f.graphs)]
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Predict(context.Background(), &Request{Graphs: big, Wait: true})
		done <- err
	}()
	// Wait until the dispatcher has started scoring the big request.
	for s.Stats().Batches == 0 {
		time.Sleep(50 * time.Microsecond)
	}

	// Fill the depth-1 queue, then the next non-waiting request must shed.
	fill := make(chan error, 1)
	go func() {
		_, err := s.Predict(context.Background(), &Request{Graphs: f.graphs[:1], Wait: true})
		fill <- err
	}()
	for s.Stats().QueueDepth == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	_, err := s.Predict(context.Background(), &Request{Graphs: f.graphs[:1]})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow request: got %v, want ErrOverloaded", err)
	}
	if s.Stats().Shed == 0 {
		t.Fatal("shed counter not incremented")
	}
	if err := <-done; err != nil {
		t.Fatalf("big request: %v", err)
	}
	if err := <-fill; err != nil {
		t.Fatalf("queued request: %v", err)
	}
}

// TestDeadlineSheds asserts a request whose deadline passes before it
// scores is rejected with ErrDeadline, not silently served late.
func TestDeadlineSheds(t *testing.T) {
	f := newFixture(t, 401, 1, 1)
	s := f.newServer(t, Config{Workers: 1})

	// A 2000-graph request occupies the dispatcher far longer than the
	// deadline below, so the short-deadline request expires in the queue.
	big := make([]*ctgraph.Graph, 2000)
	for i := range big {
		big[i] = f.graphs[i%len(f.graphs)]
	}
	bigDone := make(chan error, 1)
	go func() {
		_, err := s.Predict(context.Background(), &Request{Graphs: big, Wait: true})
		bigDone <- err
	}()
	for s.Stats().Batches == 0 {
		time.Sleep(50 * time.Microsecond)
	}

	_, err := s.Predict(context.Background(), &Request{
		Graphs:   f.graphs[:1],
		Deadline: time.Now().Add(time.Millisecond),
		Wait:     true,
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
	if s.Stats().Expired != 1 {
		t.Fatalf("expired counter = %d, want 1", s.Stats().Expired)
	}
	if err := <-bigDone; err != nil {
		t.Fatalf("big request: %v", err)
	}
}

// TestGracefulDrain closes the server while requests sit in the queue and
// asserts every admitted request is served, not dropped.
func TestGracefulDrain(t *testing.T) {
	f := newFixture(t, 501, 1, 2)
	s := f.newServer(t, Config{Workers: 1, QueueDepth: 16})

	big := make([]*ctgraph.Graph, 2000)
	for i := range big {
		big[i] = f.graphs[i%len(f.graphs)]
	}
	bigDone := make(chan error, 1)
	go func() {
		_, err := s.Predict(context.Background(), &Request{Graphs: big, Wait: true})
		bigDone <- err
	}()
	for s.Stats().Batches == 0 {
		time.Sleep(50 * time.Microsecond)
	}

	const queued = 3
	done := make(chan error, queued)
	for i := 0; i < queued; i++ {
		go func() {
			resp, err := s.Predict(context.Background(), &Request{Graphs: f.graphs[:1], Wait: true})
			if err == nil && resp.Model != "v1" {
				err = errors.New("wrong version")
			}
			done <- err
		}()
	}
	for s.Stats().QueueDepth < queued {
		time.Sleep(50 * time.Microsecond)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-bigDone; err != nil {
		t.Fatalf("in-flight request during Close: %v", err)
	}
	for i := 0; i < queued; i++ {
		if err := <-done; err != nil {
			t.Fatalf("queued request dropped by Close: %v", err)
		}
	}
	// After the drain, new requests are rejected.
	if _, err := s.Predict(context.Background(), &Request{Graphs: f.graphs[:1]}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close request: got %v, want ErrClosed", err)
	}
}

// TestEachRequestScoredAlone pins the one-call rule: requests that queue
// behind a busy dispatcher are never merged. Each is scored by its own
// PredictAllCtx call, so a large request and three 1-graph requests queued
// behind it count 4 batches, and each response carries only its own
// scores.
func TestEachRequestScoredAlone(t *testing.T) {
	f := newFixture(t, 1001, 1, 3)
	s := f.newServer(t, Config{Workers: 1})

	big := make([]*ctgraph.Graph, 2000)
	for i := range big {
		big[i] = f.graphs[i%len(f.graphs)]
	}
	bigDone := make(chan error, 1)
	go func() {
		_, err := s.Predict(context.Background(), &Request{Graphs: big, Wait: true})
		bigDone <- err
	}()
	for s.Stats().Batches == 0 {
		time.Sleep(50 * time.Microsecond)
	}

	resps := make([]*Response, len(f.graphs))
	var wg sync.WaitGroup
	for i, g := range f.graphs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := s.Predict(context.Background(), &Request{Graphs: []*ctgraph.Graph{g}, Wait: true})
			if err != nil {
				t.Errorf("request %d: %v", i, err)
			}
			resps[i] = resp
		}()
	}
	for s.Stats().QueueDepth < len(f.graphs) {
		time.Sleep(50 * time.Microsecond)
	}
	if err := <-bigDone; err != nil {
		t.Fatalf("big request: %v", err)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if st := s.Stats(); st.Batches != 4 || st.BatchedGraphs != uint64(len(big)+len(f.graphs)) {
		t.Fatalf("batches/graphs = %d/%d, want 4/%d: queued requests were merged",
			st.Batches, st.BatchedGraphs, len(big)+len(f.graphs))
	}
	for i, resp := range resps {
		want := [][]float64{f.model.Predict(f.graphs[i], f.tc)}
		if !reflect.DeepEqual(resp.Scores, want) {
			t.Fatalf("request %d: response carries %d score rows, want its own one", i, len(resp.Scores))
		}
	}
}

// TestRegistryRefusesMismatches covers the registry edge cases: an empty
// registry, duplicate versions, unknown versions, and models of a
// different kernel.
func TestRegistryRefusesMismatches(t *testing.T) {
	f := newFixture(t, 601, 1, 1)
	reg := NewRegistry()
	if snap := reg.Active(); snap != nil {
		t.Fatalf("empty registry has active version %q", snap.Version)
	}
	if err := reg.Load("v1", f.model, f.tc); err != nil {
		t.Fatal(err)
	}
	if err := reg.Load("v1", f.model, f.tc); !errors.Is(err, ErrDuplicateModel) {
		t.Fatalf("duplicate load: %v", err)
	}
	if _, err := reg.Activate("nope"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("activate unknown: %v", err)
	}
	if _, err := reg.Activate("v1"); err != nil {
		t.Fatal(err)
	}
	// A model over a different kernel (different block count) is rejected.
	k2 := kernel.Generate(kernel.DefaultConfig(77))
	m2, tc2 := tinyModel(k2, 78)
	if err := reg.Load("other-kernel", m2, tc2); !errors.Is(err, ErrKernelMismatch) {
		t.Fatalf("cross-kernel load: %v", err)
	}
}

// TestBaseCacheLRU covers hit/miss/eviction accounting and swap
// invalidation.
func TestBaseCacheLRU(t *testing.T) {
	f := newFixture(t, 801, 3, 1)
	snapA := &Snapshot{Version: "a", Model: f.model, TC: f.tc}
	snapB := &Snapshot{Version: "b", Model: f.model, TC: f.tc}
	c := NewBaseCache(2)

	bc := c.Get(snapA, f.bases[0])
	if bc == nil {
		t.Fatal("nil context")
	}
	if got := c.Get(snapA, f.bases[0]); got != bc {
		t.Fatal("repeat Get rebuilt the context")
	}
	c.Get(snapA, f.bases[1])
	c.Get(snapA, f.bases[2]) // capacity 2: evicts bases[0]
	if hits, misses, evictions := c.Counters(); hits != 1 || misses != 3 || evictions != 1 {
		t.Fatalf("counters = %d/%d/%d, want 1/3/1", hits, misses, evictions)
	}
	if got := c.Get(snapA, f.bases[0]); got == bc {
		t.Fatal("evicted entry survived")
	}

	// Same base under another snapshot is a distinct entry.
	c.Get(snapB, f.bases[0])
	if n := c.Invalidate(snapA); n == 0 {
		t.Fatal("invalidate found nothing to drop")
	}
	if c.Len() != 1 {
		t.Fatalf("after invalidate: %d entries, want 1 (the other snapshot's)", c.Len())
	}
}

// TestStatsCounters sanity-checks the ledger-style serving counters after
// a known request mix.
func TestStatsCounters(t *testing.T) {
	f := newFixture(t, 901, 2, 2)
	s := f.newServer(t, Config{Sync: true, Workers: 1})
	for _, g := range f.graphs {
		if _, err := s.Predict(context.Background(), &Request{Graphs: []*ctgraph.Graph{g}}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	n := uint64(len(f.graphs))
	if st.Requests != n || st.Graphs != n || st.BatchedGraphs != n {
		t.Fatalf("requests/graphs/batched = %d/%d/%d, want all %d", st.Requests, st.Graphs, st.BatchedGraphs, n)
	}
	if st.ServedByModel["v1"] != n {
		t.Fatalf("served_by_model[v1] = %d, want %d", st.ServedByModel["v1"], n)
	}
	if st.CacheMisses != 2 || st.CacheHits != n-2 {
		t.Fatalf("cache hits/misses = %d/%d, want %d/2", st.CacheHits, st.CacheMisses, n-2)
	}
	if _, err := s.Predict(context.Background(), &Request{Model: "v9", Graphs: f.graphs[:1]}); !errors.Is(err, ErrModelVersion) {
		t.Fatalf("pinned to wrong version: %v", err)
	}
	if s.Stats().Errors != 1 {
		t.Fatalf("errors = %d, want 1", s.Stats().Errors)
	}
}

// TestSyncRequestReusesArenas pins the synchronous path's arena reuse: a
// warm request's PredictAllCtx call borrows inference arenas from pic's
// pool instead of growing fresh ones, so it allocates only its response
// and the fan-out's bookkeeping (8 allocations for two graphs on one
// worker, against 117 with fresh arenas).
func TestSyncRequestReusesArenas(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of its items under -race")
	}
	f := newFixture(t, 101, 1, 2)
	s := f.newServer(t, Config{Sync: true, Workers: 1})
	req := &Request{Graphs: f.graphs}
	predict := func() {
		if _, err := s.Predict(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	predict()
	if allocs := testing.AllocsPerRun(50, predict); allocs > 16 {
		t.Fatalf("a warm synchronous request allocated %v times, want at most 16", allocs)
	}
}
