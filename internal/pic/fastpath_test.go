package pic

import (
	"reflect"
	"testing"

	"snowcat/internal/cfg"
	"snowcat/internal/ctgraph"
	"snowcat/internal/kernel"
	"snowcat/internal/nn"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
)

// ctiFixture is one CTI with its profiles, graph skeleton, and a family of
// candidate schedules — the shape of the inference hot loop.
type ctiFixture struct {
	builder *ctgraph.Builder
	cti     ski.CTI
	pa, pb  *syz.Profile
	base    *ctgraph.Base
	scheds  []ski.Schedule
}

func newCTIFixture(t *testing.T, k *kernel.Kernel, seed uint64, nScheds int) *ctiFixture {
	t.Helper()
	gen := syz.NewGenerator(k, seed)
	builder := ctgraph.NewBuilder(k, cfg.Build(k))
	a, b := gen.Generate(), gen.Generate()
	cti := ski.CTI{ID: int64(seed), A: a, B: b}
	pa, err := syz.Run(k, a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := syz.Run(k, b)
	if err != nil {
		t.Fatal(err)
	}
	f := &ctiFixture{builder: builder, cti: cti, pa: pa, pb: pb,
		base: builder.BuildBase(cti, pa, pb)}
	sampler := ski.NewSampler(pa, pb, seed+7)
	seen := map[string]bool{}
	for len(f.scheds) < nScheds {
		sched, ok := sampler.NextUnique(seen, 50)
		if !ok {
			break
		}
		f.scheds = append(f.scheds, sched)
	}
	if len(f.scheds) == 0 {
		t.Fatal("no schedules sampled")
	}
	// An IRQ schedule exercises the past-the-base-prefix feature path.
	if len(k.IRQs) > 0 {
		f.scheds = append(f.scheds, ski.Schedule{
			IRQs: []ski.IRQHint{{Thread: 0, Ref: pa.InstrTrace[0], IRQ: 0}},
		})
	}
	return f
}

// TestBaseContextBitEqual pins the tentpole invariant: predictions through
// the per-CTI BaseContext fast path are bit-identical to plain Predict for
// every schedule, including IRQ schedules whose graphs outgrow the base
// vertex prefix.
func TestBaseContextBitEqual(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(201))
	m := New(tinyCfg(202))
	tc := NewTokenCache(k, m.Vocab)
	f := newCTIFixture(t, k, 203, 6)
	bc := m.NewBaseContext(f.base, tc)
	s := NewScratch()
	var dst []float64
	for i, sched := range f.scheds {
		g := f.base.WithSchedule(sched)
		want := m.Predict(g, tc)
		dst = m.PredictInto(dst, g, tc, s, bc)
		if !reflect.DeepEqual(dst, want) {
			t.Fatalf("schedule %d: BaseContext prediction diverged", i)
		}
	}
}

// TestBaseContextActuallyUsed proves the fast path consumes the
// precomputed rows rather than silently recomputing: corrupting the
// context must change the output for a derived graph and must NOT change
// it for a foreign graph (the fallback).
func TestBaseContextActuallyUsed(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(211))
	m := New(tinyCfg(212))
	tc := NewTokenCache(k, m.Vocab)
	f := newCTIFixture(t, k, 213, 1)
	g := f.base.WithSchedule(f.scheds[0])
	want := m.Predict(g, tc)

	bc := m.NewBaseContext(f.base, tc)
	for i := range bc.static.Data {
		bc.static.Data[i] += 100
	}
	poisoned := m.PredictInto(nil, g, tc, nil, bc)
	if reflect.DeepEqual(poisoned, want) {
		t.Fatal("poisoned BaseContext did not affect a derived graph: fast path unused")
	}

	foreign := f.builder.Build(f.cti, f.pa, f.pb, f.scheds[0]) // own base, not bc's
	got := m.PredictInto(nil, foreign, tc, nil, bc)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("stale BaseContext changed a foreign graph: fallback broken")
	}
}

// TestPredictZeroAlloc is the arena contract: with a warm Scratch,
// capacious dst, and a BaseContext, steady-state prediction performs zero
// allocations — and stays bit-identical while doing so.
func TestPredictZeroAlloc(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(221))
	m := New(tinyCfg(222))
	tc := NewTokenCache(k, m.Vocab)
	f := newCTIFixture(t, k, 223, 4)
	bc := m.NewBaseContext(f.base, tc)
	graphs := make([]*ctgraph.Graph, len(f.scheds))
	want := make([][]float64, len(f.scheds))
	for i, sched := range f.scheds {
		graphs[i] = f.base.WithSchedule(sched)
		want[i] = m.Predict(graphs[i], tc)
	}

	s := NewScratch()
	dst := m.PredictInto(nil, graphs[0], tc, s, bc) // warm-up sizes every buffer
	for _, g := range graphs {
		dst = m.PredictInto(dst, g, tc, s, bc)
	}
	j := 0
	allocs := testing.AllocsPerRun(50, func() {
		g := graphs[j%len(graphs)]
		j++
		dst = m.PredictInto(dst, g, tc, s, bc)
	})
	if allocs != 0 {
		t.Fatalf("steady-state PredictInto allocated %v times per run, want 0", allocs)
	}
	for i, g := range graphs {
		if !reflect.DeepEqual([]float64(m.PredictInto(dst, g, tc, s, bc)), want[i]) {
			t.Fatalf("graph %d: zero-alloc prediction diverged", i)
		}
	}
}

// TestTrainStepAllocatesNothing is the training arena's contract: once a
// training scratch has seen the examples, a trainStep and its optimiser
// step perform zero allocations, through the schedule-context backward
// path too.
func TestTrainStepAllocatesNothing(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(241))
	m := New(tinyCfg(242))
	tc := NewTokenCache(k, m.Vocab)
	exs := collectExamples(t, k, 243, 4, 3)
	ts := m.newTrainScratch()
	opt := nn.NewAdam(m.Cfg.LR)
	params := m.Params()
	withCtx := 0
	for _, ex := range exs { // the warm-up sizes every buffer
		m.trainStep(ex.G, tc, ex.Y, ts)
		opt.Step(params)
		if ts.fc.hasCtx && len(ts.fc.hintTokens) > 0 {
			withCtx++
		}
	}
	if withCtx == 0 {
		t.Fatal("no example carries hint tokens: the context backward path went unexercised")
	}
	j := 0
	allocs := testing.AllocsPerRun(50, func() {
		ex := exs[j%len(exs)]
		j++
		m.trainStep(ex.G, tc, ex.Y, ts)
		opt.Step(params)
	})
	if allocs != 0 {
		t.Fatalf("a warm training step allocated %v times per run, want 0", allocs)
	}
}

// TestPredictAllCtxMatches pins the batched context path across worker
// counts against plain Predict.
func TestPredictAllCtxMatches(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(231))
	m := New(tinyCfg(232))
	tc := NewTokenCache(k, m.Vocab)
	f := newCTIFixture(t, k, 233, 6)
	bc := m.NewBaseContext(f.base, tc)
	graphs := make([]*ctgraph.Graph, len(f.scheds))
	want := make([][]float64, len(f.scheds))
	for i, sched := range f.scheds {
		graphs[i] = f.base.WithSchedule(sched)
		want[i] = m.Predict(graphs[i], tc)
	}
	for _, workers := range []int{1, 2, 8} {
		got := m.PredictAllCtx(graphs, tc, workers, bc)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: PredictAllCtx diverged from Predict", workers)
		}
	}
}
