// Scoring-backend equivalence matrix: a PIC-guided campaign under fault
// injection runs over every scoring backend a consumer can hold — the
// in-process predictor, the serving client over one in-process server,
// and the fleet client over a two-shard in-process fleet — at workers
// {1, 4}, and every History must be reflect.DeepEqual to the direct
// predictor's at one worker. Execution has a single backend (the ski
// interpreter behind explore.DefaultExecutor); scoring is where a
// consumer still chooses one, so that is the axis pinned here.
package snowcat_test

import (
	"reflect"
	"testing"

	"snowcat/internal/campaign"
	"snowcat/internal/explore"
	"snowcat/internal/faults"
	"snowcat/internal/fleet"
	"snowcat/internal/mlpct"
	"snowcat/internal/predictor"
	"snowcat/internal/serve"
	"snowcat/internal/strategy"
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

// TestCampaignHistoryAcrossBackends pins that the scoring backend is
// invisible to a campaign: History is DeepEqual across the direct
// predictor, serve.Client and fleet.Client at workers {1, 4}, with fault
// injection enabled.
func TestCampaignHistoryAcrossBackends(t *testing.T) {
	f := getParFixture()
	r := campaign.NewRunner(f.k)

	reg := serve.NewRegistry()
	if err := reg.Load("v1", f.m, f.tc); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Activate("v1"); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(reg, serve.Config{Sync: true, Workers: 2})
	t.Cleanup(func() { srv.Close() })
	fl, err := fleet.New(f.k, f.m, f.tc, fleet.Config{Shards: 2, Serve: serve.Config{Sync: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.Close)

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
		{"fleet", func() predictor.Predictor { return fl.Client("PIC") }},
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
