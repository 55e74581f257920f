// Benchmarks for the inference fast path: single-graph prediction and the
// per-CTI schedule sweep (the MLPCT hot loop — many candidate schedules of
// one CTI, built and scored).
//
// BenchmarkPredictOne and BenchmarkScheduleSweep use only the portable API
// surface (PredictWith, Builder.Build, PredictAll), so the same file runs
// against older revisions for before/after comparison. The *Base variants
// exercise the amortised path — ctgraph.Base + pic.BaseContext +
// PredictInto — which is bit-identical to the direct path (asserted by
// TestSweepPathsAgree below and the property tests in the packages).
package snowcat_test

import (
	"reflect"
	"sync"
	"testing"

	"snowcat/internal/cfg"
	"snowcat/internal/ctgraph"
	"snowcat/internal/kernel"
	"snowcat/internal/pic"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
)

// predFixtureT is one CTI with a family of candidate schedules — the unit
// of work of the MLPCT planning loop.
type predFixtureT struct {
	k       *kernel.Kernel
	m       *pic.Model
	tc      *pic.TokenCache
	builder *ctgraph.Builder
	cti     ski.CTI
	pa, pb  *syz.Profile
	scheds  []ski.Schedule
	g       *ctgraph.Graph // one built graph for single-predict benchmarks
}

var (
	predOnce sync.Once
	predFix  *predFixtureT
)

func getPredFixture() *predFixtureT {
	predOnce.Do(func() {
		f := &predFixtureT{}
		f.k = kernel.Generate(kernel.SmallConfig(201))
		f.m = pic.New(pic.Config{Dim: 16, Layers: 2, LR: 3e-3, Epochs: 1, Seed: 202, PosWeight: 8})
		f.tc = pic.NewTokenCache(f.k, f.m.Vocab)
		f.builder = ctgraph.NewBuilder(f.k, cfg.Build(f.k))

		gen := syz.NewGenerator(f.k, 207)
		a, bsti := gen.Generate(), gen.Generate()
		f.cti = ski.CTI{ID: 1, A: a, B: bsti}
		var err error
		if f.pa, err = syz.Run(f.k, a); err != nil {
			panic(err)
		}
		if f.pb, err = syz.Run(f.k, bsti); err != nil {
			panic(err)
		}
		sampler := ski.NewSampler(f.pa, f.pb, 208)
		seen := map[string]bool{}
		for len(f.scheds) < 64 {
			sched, ok := sampler.NextUnique(seen, 50)
			if !ok {
				break
			}
			f.scheds = append(f.scheds, sched)
		}
		f.g = f.builder.Build(f.cti, f.pa, f.pb, f.scheds[0])
		predFix = f
	})
	return predFix
}

// BenchmarkPredictOne is one model inference on an already-built graph
// with a warm per-caller scratch — the per-candidate cost inside a sweep.
func BenchmarkPredictOne(b *testing.B) {
	f := getPredFixture()
	s := pic.NewScratch()
	f.m.PredictWith(f.g, f.tc, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.m.PredictWith(f.g, f.tc, s)
	}
}

// BenchmarkPredictOneBase is BenchmarkPredictOne through the full arena
// path: reused result slice plus the CTI's precomputed BaseContext.
func BenchmarkPredictOneBase(b *testing.B) {
	f := getPredFixture()
	base := f.builder.BuildBase(f.cti, f.pa, f.pb)
	bc := f.m.NewBaseContext(base, f.tc)
	g := base.WithSchedule(f.scheds[0])
	s := pic.NewScratch()
	dst := f.m.PredictInto(nil, g, f.tc, s, bc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = f.m.PredictInto(dst, g, f.tc, s, bc)
	}
	_ = dst
}

// BenchmarkScheduleSweep is the direct per-CTI sweep: every candidate
// schedule's graph is built from scratch and scored in one batch — the
// shape of the planning loop before base reuse.
func BenchmarkScheduleSweep(b *testing.B) {
	f := getPredFixture()
	gs := make([]*ctgraph.Graph, len(f.scheds))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, sched := range f.scheds {
			gs[j] = f.builder.Build(f.cti, f.pa, f.pb, sched)
		}
		f.m.PredictAll(gs, f.tc, 1)
	}
}

// BenchmarkScheduleSweepBase is the amortised sweep: the graph skeleton
// and the schedule-independent features are computed once per CTI, each
// candidate only completes and scores its delta.
func BenchmarkScheduleSweepBase(b *testing.B) {
	f := getPredFixture()
	gs := make([]*ctgraph.Graph, len(f.scheds))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := f.builder.BuildBase(f.cti, f.pa, f.pb)
		bc := f.m.NewBaseContext(base, f.tc)
		for j, sched := range f.scheds {
			gs[j] = base.WithSchedule(sched)
		}
		f.m.PredictAllCtx(gs, f.tc, 1, bc)
	}
}

// BenchmarkExecuteInterp is one full concurrent execution of the fixture
// CTI through the reference interpreter, cycling the candidate schedules.
func BenchmarkExecuteInterp(b *testing.B) {
	f := getPredFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ski.Execute(f.k, f.cti, f.scheds[i%len(f.scheds)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSweepPathsAgree pins the sweep benchmarks to each other: the
// amortised path must produce bit-identical scores to the direct path for
// every candidate schedule.
func TestSweepPathsAgree(t *testing.T) {
	f := getPredFixture()
	base := f.builder.BuildBase(f.cti, f.pa, f.pb)
	bc := f.m.NewBaseContext(base, f.tc)
	direct := make([]*ctgraph.Graph, len(f.scheds))
	amort := make([]*ctgraph.Graph, len(f.scheds))
	for j, sched := range f.scheds {
		direct[j] = f.builder.Build(f.cti, f.pa, f.pb, sched)
		amort[j] = base.WithSchedule(sched)
	}
	want := f.m.PredictAll(direct, f.tc, 1)
	got := f.m.PredictAllCtx(amort, f.tc, 1, bc)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("amortised sweep scores diverged from direct sweep")
	}
}
