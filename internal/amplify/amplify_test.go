package amplify

import (
	"reflect"
	"testing"

	"snowcat/internal/explore"
	"snowcat/internal/kernel"
	"snowcat/internal/predictor"
	"snowcat/internal/ski"
	"snowcat/internal/strategy"
)

// familyKernel generates the test kernel with one bug of each new family.
func familyKernel(seed uint64) *kernel.Kernel {
	cfg := kernel.SmallConfig(seed)
	cfg.NumMissedWakeup = 1
	cfg.NumDoubleFree = 1
	cfg.NumTOCTOU = 1
	return kernel.Generate(cfg)
}

func bugOfKind(t *testing.T, k *kernel.Kernel, kind kernel.BugKind) *kernel.Bug {
	t.Helper()
	for i := range k.Bugs {
		if k.Bugs[i].Kind == kind {
			return &k.Bugs[i]
		}
	}
	t.Fatalf("no %s bug planted", kind)
	return nil
}

// findWitness discovers the "observed failure" every amplification run
// starts from: sampling first, breakpoint-pair fallback.
func findWitness(t *testing.T, k *kernel.Kernel, kind kernel.BugKind) Witness {
	t.Helper()
	bug := bugOfKind(t, k, kind)
	w, err := DiscoverWitness(k, bug.ID, 5000, 17)
	if err != nil {
		t.Fatalf("%s: %v", kind, err)
	}
	return w
}

func TestNeighborsDeterministicAndDistinct(t *testing.T) {
	k := familyKernel(3)
	w := findWitness(t, k, kernel.DoubleFree)
	traces := [2][]ski.InstrRef{w.ProfA.InstrTrace, w.ProfB.InstrTrace}
	a := Neighbors(w.Sched, traces, 4, 99)
	b := Neighbors(w.Sched, traces, 4, 99)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical inputs generated different neighborhoods")
	}
	if len(a) == 0 {
		t.Fatal("empty neighborhood")
	}
	origin := w.Sched.Key()
	seen := map[string]bool{}
	for _, s := range a {
		key := s.Key()
		if key == origin {
			t.Fatal("origin included in its own neighborhood")
		}
		if seen[key] {
			t.Fatalf("duplicate candidate %q", key)
		}
		seen[key] = true
		if err := s.Validate(); err != nil {
			t.Fatalf("invalid neighbor %q: %v", key, err)
		}
	}
	// A larger radius strictly widens the neighborhood.
	wide := Neighbors(w.Sched, traces, 8, 99)
	if len(wide) <= len(a) {
		t.Fatalf("radius 8 gave %d candidates, radius 4 gave %d", len(wide), len(a))
	}
}

func TestRunDeterministicAndWorkerInvariant(t *testing.T) {
	k := familyKernel(3)
	w := findWitness(t, k, kernel.TOCTOU)
	ex := explore.DefaultExecutor(k)
	base := Config{Seed: 5, Trials: 6, Radius: 3, Rounds: 2, Exec: ex}
	var reports []*Report
	for _, workers := range []int{1, 4, 1} {
		opt := base
		opt.Parallel = workers
		rep, err := Run(w, opt)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Fatal("reports diverge between workers=1 and workers=4")
	}
	if !reflect.DeepEqual(reports[0], reports[2]) {
		t.Fatal("repeated run with the same seed diverged")
	}
}

func TestAmplifyLiftsFamilyBugs(t *testing.T) {
	k := familyKernel(3)
	ex := explore.DefaultExecutor(k)
	for _, kind := range []kernel.BugKind{kernel.MissedWakeup, kernel.DoubleFree, kernel.TOCTOU} {
		w := findWitness(t, k, kind)
		rep, err := Run(w, Config{Seed: 23, Trials: 20, Radius: 6, Rounds: 8, Exec: ex})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Baseline.Hits == 0 {
			t.Errorf("%s: witness did not reproduce at all (trial 0 must fire)", kind)
		}
		if rep.Best.Rate < 0.9 {
			t.Errorf("%s: amplification stalled at rate %.2f", kind, rep.Best.Rate)
		}
		if rep.Lift < 2 {
			t.Errorf("%s: lift %.2fx below the 2x bar (baseline %.2f, best %.2f)",
				kind, rep.Lift, rep.Baseline.Rate, rep.Best.Rate)
		}
		t.Logf("%s: baseline %.2f -> best %.2f (lift %.2fx, %d execs)",
			kind, rep.Baseline.Rate, rep.Best.Rate, rep.Lift, rep.Execs)
	}
}

// RacyPairWitness works for the classic planted kinds too: the CLI's
// witness auto-discovery leans on that.
func TestRacyPairWitnessClassicKinds(t *testing.T) {
	k := familyKernel(3)
	for _, bug := range k.Bugs {
		w, err := RacyPairWitness(k, bug.ID)
		if err != nil {
			t.Errorf("bug %d (%s): %v", bug.ID, bug.Kind, err)
			continue
		}
		if len(w.TraceA) == 0 || len(w.TraceB) == 0 {
			t.Errorf("bug %d (%s): empty coverage traces", bug.ID, bug.Kind)
		}
	}
	if _, err := RacyPairWitness(k, 9999); err == nil {
		t.Error("unknown bug ID accepted")
	}
}

func TestPredictorGuidedPrunes(t *testing.T) {
	k := familyKernel(3)
	w := findWitness(t, k, kernel.DoubleFree)
	ex := explore.DefaultExecutor(k)
	exhaustive, err := Run(w, Config{Seed: 7, Trials: 4, Radius: 4, Rounds: 2, Exec: ex})
	if err != nil {
		t.Fatal(err)
	}
	guided, err := Run(w, Config{
		Seed: 7, Trials: 4, Radius: 4, Rounds: 2, TopK: 5, Exec: ex,
		Pred: predictor.AllPos{}, Strat: strategy.NewS1(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if guided.Executed >= exhaustive.Executed {
		t.Fatalf("guided executed %d candidates, exhaustive %d", guided.Executed, exhaustive.Executed)
	}
	if guided.Pruned == 0 {
		t.Fatal("guided run reports zero pruned neighbors")
	}
	// Guided runs are just as deterministic.
	again, err := Run(w, Config{
		Seed: 7, Trials: 4, Radius: 4, Rounds: 2, TopK: 5, Exec: ex,
		Pred: predictor.AllPos{}, Strat: strategy.NewS1(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(guided, again) {
		t.Fatal("guided run not deterministic")
	}
}

func TestLedgerAccounting(t *testing.T) {
	k := familyKernel(3)
	w := findWitness(t, k, kernel.TOCTOU)
	led := explore.NewLedger(explore.PaperCosts())
	rep, err := Run(w, Config{
		Seed: 3, Trials: 4, Radius: 3, Rounds: 2, TopK: 4, Exec: explore.DefaultExecutor(k),
		Pred: predictor.AllPos{}, Led: led,
	})
	if err != nil {
		t.Fatal(err)
	}
	if led.Execs() != rep.Execs {
		t.Errorf("ledger execs %d != report execs %d", led.Execs(), rep.Execs)
	}
	if led.Proposed() != rep.Generated {
		t.Errorf("ledger proposals %d != generated %d", led.Proposed(), rep.Generated)
	}
	if led.Inferences() == 0 {
		t.Error("no inferences charged despite a predictor")
	}
	if led.Seconds() <= 0 {
		t.Error("simulated clock did not advance")
	}
}

func TestMidRunHooksDeterministic(t *testing.T) {
	k := familyKernel(3)
	w := findWitness(t, k, kernel.DoubleFree)
	o := Config{Seed: 13, Trials: 5, Radius: 3, Rounds: 1, MidRun: true, Exec: explore.DefaultExecutor(k)}
	r1, err := Run(w, o)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(w, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("mid-run amplification not deterministic")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	k := familyKernel(3)
	ex := explore.DefaultExecutor(k)
	if _, err := Run(Witness{}, Config{}); err == nil {
		t.Fatal("nil executor accepted")
	}
	w := findWitness(t, k, kernel.DoubleFree)
	bad := w
	bad.ProfB = nil
	if _, err := Run(bad, Config{Exec: ex}); err == nil {
		t.Fatal("missing profile accepted")
	}
	bad = w
	bad.Sched = ski.Schedule{Hints: []ski.Hint{{Thread: 7}}}
	if _, err := Run(bad, Config{Exec: ex}); err == nil {
		t.Fatal("invalid schedule accepted")
	}
}
