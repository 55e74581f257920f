package pic

import (
	"reflect"
	"testing"

	"snowcat/internal/ctgraph"
	"snowcat/internal/kernel"
)

// TestFusedMatchesLoop is the fusion contract: PredictAllFused must be
// bit-identical to per-graph Predict across worker counts, for a mix of
// fusable schedules, IRQ schedules (vertices beyond the base prefix, the
// per-graph fallback), and a foreign graph from another base.
func TestFusedMatchesLoop(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(301))
	m := New(tinyCfg(302))
	tc := NewTokenCache(k, m.Vocab)
	f := newCTIFixture(t, k, 303, 19) // > 2 fuse blocks, plus an IRQ schedule
	bc := m.NewBaseContext(f.base, tc)

	graphs := make([]*ctgraph.Graph, 0, len(f.scheds)+1)
	for _, sched := range f.scheds {
		graphs = append(graphs, f.base.WithSchedule(sched))
	}
	// A foreign graph in the middle of the batch: own base, must fall back.
	foreign := f.builder.Build(f.cti, f.pa, f.pb, f.scheds[0])
	graphs = append(graphs[:4], append([]*ctgraph.Graph{foreign}, graphs[4:]...)...)

	want := make([][]float64, len(graphs))
	for i, g := range graphs {
		want[i] = m.Predict(g, tc)
	}
	sawFused, sawFallback := false, false
	for _, g := range graphs {
		if m.Fusable(g, bc) {
			sawFused = true
		} else {
			sawFallback = true
		}
	}
	if !sawFused || !sawFallback {
		t.Fatalf("fixture must mix fusable and fallback graphs (fused=%v fallback=%v)", sawFused, sawFallback)
	}

	for _, workers := range []int{1, 2, 8} {
		got := m.PredictAllFused(graphs, tc, workers, bc)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: PredictAllFused diverged from Predict", workers)
		}
	}

	// nil context degrades to the plain batched path, never wrong.
	if got := m.PredictAllFused(graphs, tc, 1, nil); !reflect.DeepEqual(got, want) {
		t.Fatal("PredictAllFused with nil BaseContext diverged from Predict")
	}
}

// TestFusedScratchReuse runs two fused batches of different sizes through
// one scratch: buffer reuse across block shapes must not leak state.
func TestFusedScratchReuse(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(311))
	m := New(tinyCfg(312))
	tc := NewTokenCache(k, m.Vocab)
	f := newCTIFixture(t, k, 313, 9)
	bc := m.NewBaseContext(f.base, tc)
	var graphs []*ctgraph.Graph
	for _, sched := range f.scheds {
		if len(sched.IRQs) > 0 {
			continue
		}
		graphs = append(graphs, f.base.WithSchedule(sched))
	}
	if len(graphs) < 3 {
		t.Skip("not enough fusable schedules sampled")
	}
	want := make([][]float64, len(graphs))
	for i, g := range graphs {
		want[i] = m.Predict(g, tc)
	}
	s := NewScratch()
	out := make([][]float64, len(graphs))
	m.predictStacked(out[:len(graphs)], graphs, tc, s, bc)
	m.predictStacked(out[:2], graphs[:2], tc, s, bc) // smaller block, reused buffers
	for i := range graphs[:2] {
		if !reflect.DeepEqual(out[i], want[i]) {
			t.Fatalf("graph %d diverged after scratch reuse", i)
		}
	}
}
