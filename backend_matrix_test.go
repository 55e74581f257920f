// Scoring-backend equivalence matrix: a PIC-guided campaign under fault
// injection runs over every scoring backend a consumer can hold — the
// in-process predictor and the serving client over one in-process
// server — at workers {1, 4}, and every History must be
// reflect.DeepEqual to the direct predictor's at one worker. The two
// non-campaign consumers, the Razzer-PIC filter and the SB-PIC sampler,
// are pinned through the serving client too. Execution has a single
// backend (the ski interpreter behind explore.DefaultExecutor); scoring
// is where a consumer still chooses one, so that is the axis pinned here.
package snowcat_test

import (
	"reflect"
	"testing"

	"snowcat/internal/campaign"
	"snowcat/internal/cfg"
	"snowcat/internal/ctgraph"
	"snowcat/internal/explore"
	"snowcat/internal/faults"
	"snowcat/internal/kernel"
	"snowcat/internal/mlpct"
	"snowcat/internal/pic"
	"snowcat/internal/predictor"
	"snowcat/internal/razzer"
	"snowcat/internal/serve"
	"snowcat/internal/ski"
	"snowcat/internal/snowboard"
	"snowcat/internal/strategy"
	"snowcat/internal/syz"
)

// matrixResilience builds a fresh fault-injection layer (per run — the
// quarantine and retry tallies are run-local state).
func matrixResilience(tb testing.TB) *explore.Resilience {
	tb.Helper()
	res, err := explore.NewResilience(faults.New(9, 0.3), faults.DefaultPolicy())
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// syncServer boots one deterministic (Sync) server serving m as v1 with
// the given scoring pool size.
func syncServer(tb testing.TB, m *pic.Model, tc *pic.TokenCache, workers int) *serve.Server {
	tb.Helper()
	reg := serve.NewRegistry()
	if err := reg.Load("v1", m, tc); err != nil {
		tb.Fatal(err)
	}
	if _, err := reg.Activate("v1"); err != nil {
		tb.Fatal(err)
	}
	srv := serve.New(reg, serve.Config{Sync: true, Workers: workers})
	tb.Cleanup(func() { srv.Close() })
	return srv
}

// TestCampaignHistoryAcrossBackends pins that the scoring backend is
// invisible to a campaign: History is DeepEqual across the direct
// predictor and serve.Client at workers {1, 4}, with fault injection
// enabled.
func TestCampaignHistoryAcrossBackends(t *testing.T) {
	f := getParFixture()
	r := campaign.NewRunner(f.k)

	srv := syncServer(t, f.m, f.tc, 2)

	// Each run gets a fresh predictor and strategy: both carry state across
	// CTIs, and any residue would change selections regardless of scores.
	// The strategy is s4, whose uncertainty band around the threshold makes
	// selections turn on the score values themselves; over this untrained
	// fixture s1 sees a new predicted bitmap on nearly every schedule and
	// would select the same schedules whatever a backend returned.
	backends := []struct {
		name string
		pred func() predictor.Predictor
	}{
		{"pic", func() predictor.Predictor { return predictor.NewPIC(f.m, f.tc, "PIC") }},
		{"serve", func() predictor.Predictor { return serve.NewClient(srv, "PIC") }},
	}
	run := func(pred predictor.Predictor, workers int) *campaign.History {
		st, err := strategy.New("s4")
		if err != nil {
			t.Fatal(err)
		}
		h, err := r.Run(campaign.Config{
			Name: "matrix", Seed: 31, NumCTIs: 16,
			Opts:       mlpct.Options{ExecBudget: 5, InferenceCap: 160, Batch: 32},
			Cost:       campaign.PaperCosts(),
			Pred:       pred,
			Strat:      st,
			Parallel:   workers,
			Resilience: matrixResilience(t),
		})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	want := run(backends[0].pred(), 1)
	if want.TotalExecs == 0 {
		t.Fatal("baseline campaign executed nothing; fixture too small")
	}
	if want.Retries+want.Skipped == 0 {
		t.Fatal("baseline campaign injected no faults; raise the fault rate")
	}
	for _, b := range backends {
		for _, workers := range []int{1, 4} {
			if got := run(b.pred(), workers); !reflect.DeepEqual(got, want) {
				t.Fatalf("backend=%s workers=%d: History diverged\ngot  %+v\nwant %+v",
					b.name, workers, got, want)
			}
		}
	}
}

// TestClientRazzerAndSnowboardPinned runs the two non-campaign consumers
// of predictor.Predictor — the Razzer-PIC CTI filter and the Snowboard
// SB-PIC sampler — through serve.Client over a sync server and pins their
// outputs to the direct in-process predictor.
func TestClientRazzerAndSnowboardPinned(t *testing.T) {
	// A kernel with planted bugs, so Razzer has target races; the model
	// is untrained, the strictest equivalence fixture: random weights, so
	// any FP reordering would show.
	k := kernel.Generate(kernel.SmallConfig(1))
	m := pic.New(pic.Config{Dim: 12, Layers: 2, LR: 3e-3, Epochs: 1, Seed: 2, PosWeight: 8})
	tc := pic.NewTokenCache(k, m.Vocab)
	direct := predictor.NewPIC(m, tc, "PIC")
	sc := serve.NewClient(syncServer(t, m, tc, 0), "PIC")

	t.Run("razzer", func(t *testing.T) {
		var targets []razzer.TargetRace
		var scs []int32
		for _, bug := range k.Bugs {
			tr, err := razzer.RaceFromBug(k, bug)
			if err != nil {
				t.Fatal(err)
			}
			targets = append(targets, tr)
			scs = append(scs, bug.ReaderSyscall, bug.WriterSyscall)
		}
		if len(targets) == 0 {
			t.Fatal("kernel planted no bugs")
		}
		pool := razzer.BuildPool(k, scs, 30, 10, 4)
		finder, err := razzer.NewFinder(k, pool)
		if err != nil {
			t.Fatal(err)
		}
		for i, tr := range targets {
			want := finder.FindCTIs(tr, razzer.PICFiltered, direct, 99)
			got := finder.FindCTIs(tr, razzer.PICFiltered, sc, 99)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("target %d: served-filter CTI set diverged from direct (%d vs %d CTIs)",
					i, len(got), len(want))
			}
		}
	})

	t.Run("snowboard", func(t *testing.T) {
		gen := syz.NewGenerator(k, 3)
		var ms []snowboard.Member
		for i := 0; i < 25; i++ {
			a, b := gen.Generate(), gen.Generate()
			pa, err := syz.Run(k, a)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := syz.Run(k, b)
			if err != nil {
				t.Fatal(err)
			}
			ms = append(ms, snowboard.Member{CTI: ski.CTI{ID: int64(i), A: a, B: b}, ProfA: pa, ProfB: pb})
		}
		clusters := snowboard.ClusterCTIs(ms)
		if len(clusters) == 0 {
			t.Fatal("no INS-PAIR clusters")
		}
		b := ctgraph.NewBuilder(k, cfg.Build(k))
		for i, c := range clusters {
			want := snowboard.NewPIC(b, direct, strategy.NewS1()).Sample(c)
			got := snowboard.NewPIC(b, sc, strategy.NewS1()).Sample(c)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cluster %d: served SB-PIC sample diverged from direct\ngot  %v\nwant %v", i, got, want)
			}
		}
	})
}
