package pic

import (
	"fmt"
	"reflect"
	"testing"

	"snowcat/internal/cfg"
	"snowcat/internal/ctgraph"
	"snowcat/internal/kernel"
	"snowcat/internal/nn"
	"snowcat/internal/sim"
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

// irqKernel generates the small kernel of seed with two IRQ handlers, so
// that newCTIFixture appends an IRQ schedule: its graph outgrows the base
// vertex prefix and takes the full adjacency rebuild, not the splice.
func irqKernel(seed uint64) *kernel.Kernel {
	kc := kernel.SmallConfig(seed)
	kc.NumIRQs = 2
	return kernel.Generate(kc)
}

// TestBaseContextBitEqual pins the tentpole invariant: predictions through
// the per-CTI BaseContext fast path are bit-identical to plain Predict for
// every schedule, including IRQ schedules whose graphs outgrow the base
// vertex prefix. One scratch serves every schedule, so the spliced and the
// rebuilt adjacency alternate in its buffers.
func TestBaseContextBitEqual(t *testing.T) {
	k := irqKernel(201)
	m := New(tinyCfg(202))
	tc := NewTokenCache(k, m.Vocab)
	f := newCTIFixture(t, k, 203, 6)
	if len(f.scheds[len(f.scheds)-1].IRQs) == 0 {
		t.Fatal("the fixture has no IRQ schedule")
	}
	bc := m.NewBaseContext(f.base, tc)
	s := NewScratch()
	var dst []float64
	for i, sched := range append(f.scheds, f.scheds...) {
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
// counts against plain Predict, an IRQ schedule included.
func TestPredictAllCtxMatches(t *testing.T) {
	k := irqKernel(231)
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

// relGraphFields returns what defines an nn.RelGraph: its node count, the
// edges and norms of every relation, and its CSR index with the relation
// bits, read by name, the unexported ones through reflect. Empty slices
// come back nil, so reflect.DeepEqual compares graphs built in fresh and
// in reused buffers alike.
func relGraphFields(g *nn.RelGraph) []any {
	v := reflect.ValueOf(g).Elem()
	ints := func(name string) []int64 {
		f := v.FieldByName(name)
		var out []int64
		for i := 0; i < f.Len(); i++ {
			out = append(out, f.Index(i).Int())
		}
		return out
	}
	var rels []uint64
	for f, i := v.FieldByName("rels"), 0; i < f.Len(); i++ {
		rels = append(rels, f.Index(i).Uint())
	}
	fields := []any{g.NumNodes, ints("off"), ints("src"), rels}
	for r := range g.Rel {
		var edges []nn.EdgePair
		var norm []float64
		edges = append(edges, g.Rel[r]...)
		norm = append(norm, g.Norm[r]...)
		fields = append(fields, edges, norm)
	}
	return fields
}

// hintSchedules returns hint-only schedules of f's CTI that the sampler
// rarely draws: two hints yielding to one block, a repeated hint pair
// (WithSchedule drops the duplicate edge), a hint yielding to its own
// block (a self loop), and hints at a block outside the graph, whose edges
// cannot be resolved, plus the empty schedule.
func hintSchedules(t *testing.T, k *kernel.Kernel, f *ctiFixture) []ski.Schedule {
	t.Helper()
	ta, tb := f.pa.InstrTrace, f.pb.InstrTrace
	a := ski.Hint{Thread: 0, Ref: ta[len(ta)/3]}
	a2 := ski.Hint{Thread: 0, Ref: ta[len(ta)/3]}
	a2.Ref.Idx++ // the same block, another instruction
	b := ski.Hint{Thread: 1, Ref: tb[len(tb)/2]}
	c := ski.Hint{Thread: 0, Ref: ta[2*len(ta)/3]}
	g := f.base.WithSchedule(ski.Schedule{})
	x := ski.Hint{Thread: 1, Ref: b.Ref}
	for blk := int32(0); blk < int32(k.NumBlocks()); blk++ {
		if g.VertexOf(blk) < 0 {
			x.Ref = sim.InstrRef{Block: blk}
			break
		}
	}
	if g.VertexOf(x.Ref.Block) >= 0 {
		t.Fatal("every kernel block is a vertex: no unresolvable hint")
	}
	return []ski.Schedule{
		{},
		{Hints: []ski.Hint{a, b, a, c}},
		{Hints: []ski.Hint{a, b, a, b, a, b}},
		{Hints: []ski.Hint{a, a2, b}},
		{Hints: []ski.Hint{x, a}},
		{Hints: []ski.Hint{a, x, b, x}},
	}
}

// TestSpliceMatchesRebuild pins the adjacency splice behind BaseContext:
// for the hint-only schedules of several CTIs, sampled ones and
// hintSchedules', the RelGraph spliced onto the context's adjacency equals
// relGraphInto's full rebuild in every field. One scratch graph serves
// every step, and after each splice a Reset and the full rebuild of
// another graph in its buffers must leave the context's adjacency as it
// was built.
func TestSpliceMatchesRebuild(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(251))
	m := New(tinyCfg(252))
	tc := NewTokenCache(k, m.Vocab)
	var rg *nn.RelGraph
	for seed := uint64(253); seed < 258; seed++ {
		f := newCTIFixture(t, k, seed, 8)
		bc := m.NewBaseContext(f.base, tc)
		built := relGraphFields(bc.rg)
		scheds := append(hintSchedules(t, k, f), f.scheds...)
		hints := 0
		for i, sched := range scheds {
			g := f.base.WithSchedule(sched)
			hints += g.EdgeCount(ctgraph.Hint)
			what := fmt.Sprintf("CTI %d schedule %d", seed, i)
			rg = relGraphInto(rg, g, bc.rg)
			if got, want := relGraphFields(rg), relGraphFields(relGraphInto(nil, g, nil)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: the spliced adjacency differs from the rebuilt one:\n got %v\nwant %v", what, got, want)
			}
			rg = relGraphInto(rg, f.base.WithSchedule(scheds[(i+1)%len(scheds)]), nil)
			if !reflect.DeepEqual(relGraphFields(bc.rg), built) {
				t.Fatalf("%s: a rebuild after the splice changed the context's adjacency", what)
			}
		}
		if hints == 0 {
			t.Fatalf("CTI %d: no schedule has a hint edge", seed)
		}
	}
}
