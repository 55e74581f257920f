package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"snowcat/internal/ctgraph"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
)

// stationFixture extends the serving fixture with raw CTIs and schedules,
// the inputs of the CTI-level (/v1/predict_cti) protocol.
type stationFixture struct {
	*fixture
	ctis   []ski.CTI
	scheds [][]ski.Schedule
}

func newStationFixture(t testing.TB, seed uint64, ctis, schedsPer int) *stationFixture {
	t.Helper()
	f := &stationFixture{fixture: newFixture(t, seed, ctis, schedsPer)}
	gen := syz.NewGenerator(f.k, seed+2)
	for i := 0; i < ctis; i++ {
		a, b := gen.Generate(), gen.Generate()
		cti := ski.CTI{ID: int64(i), A: a, B: b}
		pa, err := syz.Run(f.k, a)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := syz.Run(f.k, b)
		if err != nil {
			t.Fatal(err)
		}
		sampler := ski.NewSampler(pa, pb, seed+3+uint64(i))
		var ss []ski.Schedule
		for j := 0; j < schedsPer; j++ {
			ss = append(ss, sampler.Next())
		}
		f.ctis = append(f.ctis, cti)
		f.scheds = append(f.scheds, ss)
	}
	return f
}

// TestPredictCTIMatchesGraphPath pins that the CTI-level path — server-side
// profiling, base build, WithSchedule — scores bit-identically to the
// fixture's direct per-graph reference. The station rebuilds exactly the
// state newFixture built, so the graphs must be equal.
func TestPredictCTIMatchesGraphPath(t *testing.T) {
	f := newStationFixture(t, 211, 3, 4)
	want := f.direct(1)
	s := f.newServer(t, Config{Kernel: f.k})
	got := make([][]float64, 0, len(want))
	for i, cti := range f.ctis {
		resp, err := s.PredictCTI(context.Background(), cti, f.scheds[i], Request{Wait: true})
		if err != nil {
			t.Fatalf("PredictCTI cti%d: %v", cti.ID, err)
		}
		got = append(got, resp.Scores...)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("CTI-level predictions differ from the direct graph path")
	}
	hits, misses, _ := s.station.Counters()
	if misses != uint64(len(f.ctis)) || hits != 0 {
		t.Fatalf("station counters hits=%d misses=%d, want 0/%d", hits, misses, len(f.ctis))
	}
	// Second pass: all hits, same scores.
	for i, cti := range f.ctis {
		resp, err := s.PredictCTI(context.Background(), cti, f.scheds[i], Request{Wait: true})
		if err != nil {
			t.Fatal(err)
		}
		for j, row := range resp.Scores {
			if !reflect.DeepEqual(row, got[i*4+j]) {
				t.Fatalf("cti%d sched %d: hit-path scores differ from miss-path", cti.ID, j)
			}
		}
	}
	hits, _, _ = s.station.Counters()
	if hits != uint64(len(f.ctis)) {
		t.Fatalf("second pass hits = %d, want %d", hits, len(f.ctis))
	}
}

// TestStationEvictionUnderConcurrentMixedCTILoad is the satellite race
// test: a station and BaseContext LRU far smaller than the working set,
// hammered by concurrent clients with interleaved CTIs, must evict
// constantly yet return bit-correct scores throughout (run under -race).
func TestStationEvictionUnderConcurrentMixedCTILoad(t *testing.T) {
	const ctis, schedsPer = 8, 2
	f := newStationFixture(t, 223, ctis, schedsPer)
	want := f.direct(1)
	s := f.newServer(t, Config{
		Kernel:    f.k,
		CacheSize: 3, // working set 8: the station and the LRU both thrash
		Workers:   2,
	})
	const clients, rounds = 4, 6
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range f.ctis {
					// Stagger the walk per client so concurrent requests mix CTIs.
					i = (i + c) % len(f.ctis)
					resp, err := s.PredictCTI(context.Background(), f.ctis[i], f.scheds[i], Request{Wait: true})
					if err != nil {
						errs <- err
						return
					}
					for j, row := range resp.Scores {
						if !reflect.DeepEqual(row, want[i*schedsPer+j]) {
							t.Errorf("client %d: cti%d sched %d: scores diverged under eviction pressure", c, i, j)
							return
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	_, _, evictions := s.station.Counters()
	if evictions == 0 {
		t.Fatal("station working set exceeded capacity but nothing evicted")
	}
	snap := s.Stats()
	if snap.StationMisses == 0 || snap.StationHits == 0 {
		t.Fatalf("expected both station hits and misses, got hits=%d misses=%d",
			snap.StationHits, snap.StationMisses)
	}
	if snap.ErrorRate != 0 {
		t.Fatalf("error rate %v on an all-success run", snap.ErrorRate)
	}
}

// TestHotSwapDrainMidQueue is the race test for the registry: model
// versions swap while requests queue. Every response must be internally
// consistent (scored wholly by one version) and no admitted request may be
// dropped (run under -race).
func TestHotSwapDrainMidQueue(t *testing.T) {
	f := newFixture(t, 229, 2, 6)
	m2, tc2 := tinyModel(f.k, 999)
	s := f.newServer(t, Config{Workers: 2})
	if err := s.Registry().Load("v2", m2, tc2); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		vs := []string{"v2", "v1"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Swap(vs[i%2]); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(300 * time.Microsecond)
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 40; r++ {
				g := f.graphs[r%len(f.graphs)]
				resp, err := s.Predict(context.Background(), &Request{Graphs: []*ctgraph.Graph{g, g}, Wait: true})
				if err != nil {
					t.Errorf("predict: %v", err)
					return
				}
				if resp.Model != "v1" && resp.Model != "v2" {
					t.Errorf("scored by unknown version %q", resp.Model)
					return
				}
				// Identical graphs in one request: one snapshot scored both, so
				// the rows must be bit-identical even across racing swaps.
				if !reflect.DeepEqual(resp.Scores[0], resp.Scores[1]) {
					t.Error("one response mixed model versions across its graphs")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	swapper.Wait()
	snap := s.Stats()
	if snap.Swaps == 0 {
		t.Fatal("no hot-swaps completed during the run")
	}
	if want := uint64(160); snap.Requests != want {
		t.Fatalf("requests = %d, want %d (admitted requests must never be dropped)", snap.Requests, want)
	}
}

// TestPredictCTIHTTPRoundTrip drives the wire protocol end to end: encode
// a CTI request, POST it through the real handler, and require the scores
// to be identical (post-JSON) to the in-process CTI path, through the
// HTTPClient.
func TestPredictCTIHTTPRoundTrip(t *testing.T) {
	f := newStationFixture(t, 241, 2, 3)
	s := f.newServer(t, Config{Kernel: f.k})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := NewHTTPClient(ts.URL)
	for i, cti := range f.ctis {
		want, err := s.PredictCTI(context.Background(), cti, f.scheds[i], Request{Wait: true})
		if err != nil {
			t.Fatal(err)
		}
		// JSON round-trips float64 exactly (Go encodes the shortest exact
		// representation), so even the wire path must match bit for bit.
		wantJSON, _ := json.Marshal(want.Scores)
		got, err := client.PredictCTI(context.Background(), cti, f.scheds[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, _ := json.Marshal(got.Scores)
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("cti%d: wire scores differ from in-process scores", cti.ID)
		}
		if got.Model != want.Model || got.Threshold != want.Threshold {
			t.Fatalf("cti%d: wire metadata differs", cti.ID)
		}
	}
	snap, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.StationHits == 0 {
		t.Fatal("statsz over HTTP shows no station hits after a hit-path run")
	}
}

// TestPredictCTIRejectsMalformed pins wire-level validation: out-of-range
// syscalls and IRQ numbers, empty programs, and empty schedule lists are
// rejected with ErrBadRequest before any profiling runs.
func TestPredictCTIRejectsMalformed(t *testing.T) {
	f := newStationFixture(t, 251, 1, 1)
	good := PredictCTIRequest{CTI: EncodeCTI(f.ctis[0])}
	good.Schedules = []WireSchedule{EncodeSchedule(f.scheds[0][0])}
	cases := map[string]func(r *PredictCTIRequest){
		"no schedules":    func(r *PredictCTIRequest) { r.Schedules = nil },
		"empty program":   func(r *PredictCTIRequest) { r.CTI.A.Calls = nil },
		"syscall range":   func(r *PredictCTIRequest) { r.CTI.B.Calls[0].Syscall = int32(len(f.k.Syscalls)) },
		"negative sysc":   func(r *PredictCTIRequest) { r.CTI.A.Calls[0].Syscall = -1 },
		"bad hint thread": func(r *PredictCTIRequest) { r.Schedules[0].Hints = []WireHint{{Thread: 2}} },
		"irq range":       func(r *PredictCTIRequest) { r.Schedules[0].IRQs = []WireIRQHint{{IRQ: int32(len(f.k.IRQs))}} },
		"negative irq":    func(r *PredictCTIRequest) { r.Schedules[0].IRQs = []WireIRQHint{{IRQ: -1}} },
		"neg deadline":    func(r *PredictCTIRequest) { r.DeadlineMS = -1 },
	}
	for name, mutate := range cases {
		data, _ := json.Marshal(good)
		var r PredictCTIRequest
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatal(err)
		}
		mutate(&r)
		if err := r.Validate(f.k); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: malformed request validated (err %v)", name, err)
		}
	}
	if err := good.Validate(f.k); err != nil {
		t.Fatalf("well-formed request rejected: %v", err)
	}
}
