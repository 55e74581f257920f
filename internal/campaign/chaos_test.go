package campaign

import (
	"reflect"
	"testing"

	"snowcat/internal/explore"
	"snowcat/internal/faults"
	"snowcat/internal/kernel"
	"snowcat/internal/mlpct"
	"snowcat/internal/pic"
	"snowcat/internal/predictor"
	"snowcat/internal/strategy"
)

// chaosConfig is the shared campaign shape of the chaos suite.
func chaosConfig(workers int, mlpctRun bool) Config {
	cfg := Config{
		Name: "chaos", Seed: 23, NumCTIs: 5,
		Opts:     mlpct.Options{ExecBudget: 5, InferenceCap: 30, Batch: 4},
		Cost:     PaperCosts(),
		Parallel: workers,
	}
	if mlpctRun {
		cfg.Pred = predictor.AllPos{}
		cfg.Strat = strategy.NewS2()
	}
	return cfg
}

func mustResilience(t *testing.T, inj *faults.Injector, p faults.Policy) *explore.Resilience {
	t.Helper()
	r, err := explore.NewResilience(inj, p)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPinnedHistoryZeroRateResilience extends the pinned suite: a
// resilience layer whose injector never fires must leave Figure-5
// histories bit-identical to the legacy (nil-resilience) runner.
func TestPinnedHistoryZeroRateResilience(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(31))
	r := NewRunner(k)
	for _, mlpctRun := range []bool{false, true} {
		cfg := chaosConfig(1, mlpctRun)
		want, err := r.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			cfg := chaosConfig(workers, mlpctRun)
			cfg.Resilience = mustResilience(t, nil, faults.DefaultPolicy())
			got, err := r.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("mlpct=%v workers=%d: zero-fault resilient history diverged\ngot  %+v\nwant %+v",
					mlpctRun, workers, got, want)
			}
			if got.Retries != 0 || got.Skipped != 0 || got.Quarantined != 0 {
				t.Fatalf("mlpct=%v: zero-fault run recorded chaos counters %+v", mlpctRun, got)
			}
		}
	}
}

// TestCampaignChaosDeterministic pins the enabled contract: with a fixed
// fault seed the whole history — coverage points, simulated clock, and the
// retry/skip/quarantine counters — is identical at 1 and 4 workers, for
// plain PCT, MLPCT over a stub predictor, and MLPCT over a PIC model (whose
// per-CTI context and batched scoring then run under faults).
func TestCampaignChaosDeterministic(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(31))
	r := NewRunner(k)
	m := pic.New(pic.Config{Dim: 8, Layers: 2, Seed: 32})
	tc := pic.NewTokenCache(k, m.Vocab)
	for _, guide := range []string{"pct", "allpos-s2", "pic-s1"} {
		run := func(workers int) *History {
			cfg := chaosConfig(workers, guide == "allpos-s2")
			if guide == "pic-s1" {
				cfg.Pred, cfg.Strat = predictor.NewPIC(m, tc, "PIC"), strategy.NewS1()
			}
			cfg.Resilience = mustResilience(t, faults.New(77, 0.5), faults.DefaultPolicy())
			h, err := r.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return h
		}
		canon := run(1)
		if canon.Retries+canon.Skipped == 0 {
			t.Fatalf("%s: chaos campaign injected nothing", guide)
		}
		if got := run(4); !reflect.DeepEqual(got, canon) {
			t.Fatalf("%s: workers=4 history diverged\ngot  %+v\nwant %+v", guide, got, canon)
		}
	}
}

// TestCampaignSurvivesFullFaultRate is the degradation extreme: every
// execution attempt faults, yet the campaign completes without error and
// reports every candidate as skipped or retried rather than aborting.
func TestCampaignSurvivesFullFaultRate(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(31))
	r := NewRunner(k)
	cfg := chaosConfig(4, false)
	cfg.Resilience = mustResilience(t, faults.New(5, 1), faults.DefaultPolicy())
	h, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Slow faults still succeed, so some executions may land; but nothing
	// may crash and the counters must reflect the carnage.
	if h.Skipped == 0 {
		t.Fatalf("full fault rate skipped nothing: %+v", h)
	}
}
