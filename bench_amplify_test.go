// Benchmarks for the bug-amplification subsystem: starting from a
// sampled (or breakpoint-pair) witness for each planted bug family, the
// neighborhood search must grow the reproduction rate by at least 2x,
// and the PIC-guided top-K path must measure fewer candidates than the
// exhaustive climb for the same improvement machinery (see EXPERIMENTS.md
// and BENCH_amplify.json).
package snowcat_test

import (
	"sync"
	"testing"

	"snowcat/internal/amplify"
	"snowcat/internal/dataset"
	"snowcat/internal/explore"
	"snowcat/internal/kernel"
	"snowcat/internal/pic"
	"snowcat/internal/predictor"
)

type amplifyFixtureT struct {
	k    *kernel.Kernel
	pred predictor.Predictor
	wit  map[kernel.BugKind]amplify.Witness
}

var (
	amplifyOnce sync.Once
	amplifyFix  *amplifyFixtureT
)

// getAmplifyFixture builds the family kernel (one planted bug per new
// family on top of the small preset), discovers each family's witness the
// way a campaign would (sampling first, breakpoint-pair fallback), and
// trains a small PIC for the guided-pruning variant.
func getAmplifyFixture() *amplifyFixtureT {
	amplifyOnce.Do(func() {
		f := &amplifyFixtureT{wit: make(map[kernel.BugKind]amplify.Witness)}
		kcfg := kernel.SmallConfig(3)
		kcfg.NumMissedWakeup = 1
		kcfg.NumDoubleFree = 1
		kcfg.NumTOCTOU = 1
		f.k = kernel.Generate(kcfg)

		for _, bug := range f.k.Bugs {
			if _, ok := f.wit[bug.Kind]; ok {
				continue
			}
			w, err := amplify.DiscoverWitness(f.k, bug.ID, 5000, 17)
			if err != nil {
				panic(err)
			}
			f.wit[bug.Kind] = w
		}

		m := pic.New(pic.Config{Dim: 12, Layers: 2, LR: 3e-3, Epochs: 1, Seed: 402, PosWeight: 8})
		tc := pic.NewTokenCache(f.k, m.Vocab)
		col := dataset.NewCollector(f.k, 403)
		ds, err := col.Collect(dataset.Config{Seed: 404, NumCTIs: 6, InterleavingsPerCTI: 4})
		if err != nil {
			panic(err)
		}
		if _, err := m.Train(ds.Flatten(), tc); err != nil {
			panic(err)
		}
		f.pred = predictor.NewPIC(m, tc, "PIC")
		amplifyFix = f
	})
	return amplifyFix
}

// amplifyBenchConfig is the recipe the family rows run under; pinned by
// TestAmplifyLiftsFamilyBugs with the same knobs.
func amplifyBenchConfig(ex explore.Executor) amplify.Config {
	return amplify.Config{Seed: 23, Trials: 20, Radius: 6, Rounds: 8, Exec: ex, Parallel: 4}
}

// BenchmarkAmplifyFamily/<kind>: the headline repro-rate table. lift_x is
// the paper-shaped claim (amplified rate over witness baseline, >= 2x on
// every family); the benchmark fails outright if a family misses the bar,
// so the JSON snapshot can't silently regress.
func BenchmarkAmplifyFamily(b *testing.B) {
	f := getAmplifyFixture()
	for _, kind := range []kernel.BugKind{kernel.MissedWakeup, kernel.DoubleFree, kernel.TOCTOU} {
		b.Run(kind.String(), func(b *testing.B) {
			ex := explore.DefaultExecutor(f.k)
			for i := 0; i < b.N; i++ {
				rep, err := amplify.Run(f.wit[kind], amplifyBenchConfig(ex))
				if err != nil {
					b.Fatal(err)
				}
				if rep.Lift < 2 {
					b.Fatalf("lift %.2fx below the 2x bar (baseline %.2f, best %.2f)",
						rep.Lift, rep.Baseline.Rate, rep.Best.Rate)
				}
				b.ReportMetric(rep.Baseline.Rate*100, "baseline_pct")
				b.ReportMetric(rep.Best.Rate*100, "amplified_pct")
				b.ReportMetric(rep.Lift, "lift_x")
				b.ReportMetric(float64(rep.Execs), "execs")
				b.ReportMetric(float64(rep.ExecsTo90), "execs_to_90")
			}
		})
	}
}

// BenchmarkAmplifyGuided/<kind>: identical witness, seed, and climb run
// twice — exhaustively and with the PIC ranking the neighborhood so only
// the top-K measure. The guided run must reach the exhaustive run's final
// reproduction rate on strictly fewer dynamic executions; the benchmark
// fails if either side of that claim slips.
func BenchmarkAmplifyGuided(b *testing.B) {
	f := getAmplifyFixture()
	for _, kind := range []kernel.BugKind{kernel.MissedWakeup, kernel.DoubleFree, kernel.TOCTOU} {
		b.Run(kind.String(), func(b *testing.B) {
			ex := explore.DefaultExecutor(f.k)
			for i := 0; i < b.N; i++ {
				exh, err := amplify.Run(f.wit[kind], amplifyBenchConfig(ex))
				if err != nil {
					b.Fatal(err)
				}
				opt := amplifyBenchConfig(ex)
				opt.TopK = 24
				opt.Pred = f.pred
				gd, err := amplify.Run(f.wit[kind], opt)
				if err != nil {
					b.Fatal(err)
				}
				if gd.Best.Rate < exh.Best.Rate {
					b.Fatalf("guided stalled at %.2f, exhaustive reached %.2f", gd.Best.Rate, exh.Best.Rate)
				}
				if gd.Execs >= exh.Execs {
					b.Fatalf("guided spent %d execs, exhaustive %d: pruning bought nothing", gd.Execs, exh.Execs)
				}
				b.ReportMetric(float64(exh.Execs), "exhaustive_execs")
				b.ReportMetric(float64(gd.Execs), "guided_execs")
				b.ReportMetric(float64(exh.Execs)/float64(gd.Execs), "prune_win_x")
				b.ReportMetric(float64(gd.Pruned), "pruned")
				b.ReportMetric(gd.Best.Rate*100, "amplified_pct")
			}
		})
	}
}
