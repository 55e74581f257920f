package trainer

import (
	"reflect"
	"testing"

	"snowcat/internal/campaign"
	"snowcat/internal/dataset"
	"snowcat/internal/kernel"
	"snowcat/internal/mlpct"
	"snowcat/internal/pic"
	"snowcat/internal/predictor"
	"snowcat/internal/serve"
	"snowcat/internal/ski"
	"snowcat/internal/strategy"
	"snowcat/internal/stream"
)

// learnFixture builds the shared loop rig: a small kernel and an
// untrained model over its vocabulary (training dynamics still run; the
// loop's properties do not depend on model quality).
func learnFixture(t testing.TB, seed uint64) (*kernel.Kernel, *pic.Model, *pic.TokenCache) {
	t.Helper()
	k := kernel.Generate(kernel.SmallConfig(seed))
	m := pic.New(pic.Config{Dim: 12, Layers: 2, LR: 3e-3, Epochs: 1, Seed: seed + 1, PosWeight: 8})
	return k, m, pic.NewTokenCache(k, m.Vocab)
}

func loopConfig(name string, strat strategy.Strategy, retrainEvery float64) LoopConfig {
	return LoopConfig{
		Name: name, Seed: 71, NumCTIs: 6,
		Opts:  mlpct.Options{ExecBudget: 3, InferenceCap: 96, Batch: 16},
		Cost:  campaign.PaperCosts(),
		Strat: strat, Parallel: 2,
		Train: Config{RetrainEvery: retrainEvery, MinNew: 1},
	}
}

// The frozen loop (RetrainEvery <= 0) is the existing MLPCT campaign with
// the predictor moved behind the serving boundary — its history must be
// bit-identical to the direct campaign on the same stream.
func TestLearnFrozenMatchesDirectCampaign(t *testing.T) {
	k, m, tc := learnFixture(t, 71)

	s1, err := strategy.New("s4")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Learn(k, m, tc, loopConfig("LOOP", s1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 0 || len(res.Versions) != 1 || res.Versions[0] != "v1" {
		t.Fatalf("frozen loop retrained: rounds %v versions %v", res.Rounds, res.Versions)
	}

	s2, err := strategy.New("s4")
	if err != nil {
		t.Fatal(err)
	}
	cfg := loopConfig("LOOP", s2, 0)
	direct, err := campaign.NewRunner(k).Run(campaign.Config{
		Name: cfg.Name, Seed: cfg.Seed, NumCTIs: cfg.NumCTIs, Opts: cfg.Opts,
		Cost: cfg.Cost, Pred: predictor.NewPIC(m, tc, "PIC"), Strat: s2,
		Parallel: cfg.Parallel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Hist, direct) {
		t.Fatal("frozen loop history diverged from the direct MLPCT campaign")
	}
	if res.Examples != direct.TotalExecs {
		t.Fatalf("streamed %d examples, campaign executed %d", res.Examples, direct.TotalExecs)
	}
}

// With retraining on, the loop publishes versions on the simulated clock
// and keeps counting examples; the round ledger is internally consistent.
func TestLearnRetrainsAndHotSwaps(t *testing.T) {
	k, m, tc := learnFixture(t, 71)
	st, err := strategy.New("s4")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Learn(k, m, tc, loopConfig("LOOP", st, 15))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) == 0 {
		t.Fatal("no retrain round ran")
	}
	if res.Versions[0] != "v1" || len(res.Versions) != len(res.Rounds)+1 {
		t.Fatalf("versions %v for %d rounds", res.Versions, len(res.Rounds))
	}
	total := 0
	for i, r := range res.Rounds {
		if r.New <= 0 {
			t.Fatalf("round %d folded %d examples", i, r.New)
		}
		total += r.New
		if r.Total != total {
			t.Fatalf("round %d total %d, want %d", i, r.Total, total)
		}
		if r.Version != res.Versions[i+1] {
			t.Fatalf("round %d version %q, listed %q", i, r.Version, res.Versions[i+1])
		}
		if i > 0 && r.AtSeconds <= res.Rounds[i-1].AtSeconds {
			t.Fatalf("round clock not increasing: %v", res.Rounds)
		}
	}
	if total > res.Examples {
		t.Fatalf("rounds folded %d of %d streamed examples", total, res.Examples)
	}
	if res.Dataset == nil || res.Dataset.NumExamples() != res.Examples {
		t.Fatal("dataset does not match the streamed example count")
	}
}

// The whole closed loop is deterministic, and its determinism is
// worker-count invariant.
func TestLearnDeterministicAcrossWorkers(t *testing.T) {
	k, m, tc := learnFixture(t, 71)
	run := func(parallel int) *LoopResult {
		st, err := strategy.New("s4")
		if err != nil {
			t.Fatal(err)
		}
		cfg := loopConfig("LOOP", st, 15)
		cfg.Parallel = parallel
		res, err := Learn(k, m, tc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	for _, p := range []int{2, 4} {
		got := run(p)
		if !reflect.DeepEqual(ref.Hist, got.Hist) {
			t.Fatalf("history differs at parallel=%d", p)
		}
		if !reflect.DeepEqual(ref.Rounds, got.Rounds) {
			t.Fatalf("rounds differ at parallel=%d", p)
		}
		if ref.Examples != got.Examples || ref.ExecsToFirstBug != got.ExecsToFirstBug {
			t.Fatalf("counters differ at parallel=%d", p)
		}
	}
}

// Trainer unit behaviour: MinNew gates a due round, the clock tick is
// consumed either way, and a later round with enough fresh examples
// publishes the next version.
func TestTrainerMinNewGatesRounds(t *testing.T) {
	k, m, tc := learnFixture(t, 81)
	reg := serve.NewRegistry()
	if err := reg.Load("v1", m, tc); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(reg, serve.Config{Sync: true})
	defer srv.Close()
	if err := srv.Swap("v1"); err != nil {
		t.Fatal(err)
	}

	col := dataset.NewCollector(k, 82)
	bus := stream.New(col, stream.Config{})
	tr, err := New(m, tc, bus, PublishTo(srv), Config{RetrainEvery: 10, MinNew: 3})
	if err != nil {
		t.Fatal(err)
	}

	publish := func(n int) {
		t.Helper()
		cti, pa, pb, err := col.NewCTI(int64(bus.Stats().Published))
		if err != nil {
			t.Fatal(err)
		}
		sampler := ski.NewSampler(pa, pb, 83)
		seen := map[string]bool{}
		for i := 0; i < n; i++ {
			sched, ok := sampler.NextUnique(seen, 50)
			if !ok {
				t.Fatal("sampler dried up")
			}
			res, err := ski.Execute(k, cti, sched)
			if err != nil {
				t.Fatal(err)
			}
			bus.Publish(cti, sched, res)
		}
	}

	if r, err := tr.MaybeRound(5); err != nil || r != nil {
		t.Fatalf("round before the interval: %v, %v", r, err)
	}
	publish(2)
	// Due, but only 2 fresh examples < MinNew 3: skipped, tick consumed.
	if r, err := tr.MaybeRound(12); err != nil || r != nil {
		t.Fatalf("under-MinNew round ran: %v, %v", r, err)
	}
	if r, err := tr.MaybeRound(13); err != nil || r != nil {
		t.Fatalf("tick not consumed by the skipped round: %v, %v", r, err)
	}
	publish(2)
	r, err := tr.MaybeRound(25)
	if err != nil {
		t.Fatal(err)
	}
	if r == nil || r.Version != "v2" || r.New != 4 {
		t.Fatalf("round = %+v", r)
	}
	if got := srv.Registry().Active().Version; got != "v2" {
		t.Fatalf("active version %q after publish", got)
	}
	if tr.Steps() != 4 {
		t.Fatalf("warm-start steps = %d, want 4", tr.Steps())
	}
	// The served v1 snapshot must not have been touched by training.
	if snap := srv.Registry().Active(); snap.Model == m {
		t.Fatal("registry serves the live training copy")
	}
}

// budgetBlind hides S4's VersionAware implementation: embedding the
// Strategy *interface* promotes only the Strategy methods, so
// NotifyVersion no-ops and the trial caps survive every hot-swap.
type budgetBlind struct{ strategy.Strategy }

// Each published version must reopen S4's per-block trial budget
// (strategy.NotifyVersion in the loop), so execution volume grows across
// versions: under identical retraining, version-aware S4 keeps buying
// labels where a cap-frozen S4 has gone exec-silent.
func TestLearnS4ExecVolumeGrowsAcrossVersions(t *testing.T) {
	k, m, tc := learnFixture(t, 71)

	run := func(blind bool) *LoopResult {
		st, err := strategy.New("s4")
		if err != nil {
			t.Fatal(err)
		}
		if blind {
			st = budgetBlind{st}
		}
		cfg := loopConfig("LOOP", st, 15)
		cfg.NumCTIs = 8
		cfg.Opts.ExecBudget = 6
		cfg.Opts.InferenceCap = 200
		res, err := Learn(k, m, tc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	aware := run(false)
	blind := run(true)
	if len(aware.Rounds) == 0 {
		t.Fatal("retraining campaign published no versions")
	}
	t.Logf("version-aware S4: %d execs across %d versions; cap-frozen S4: %d execs across %d versions",
		aware.Examples, len(aware.Versions), blind.Examples, len(blind.Versions))
	if aware.Examples <= blind.Examples {
		t.Fatalf("version-aware S4 executed %d <= cap-frozen %d: swaps did not reopen the trial budget",
			aware.Examples, blind.Examples)
	}
}
