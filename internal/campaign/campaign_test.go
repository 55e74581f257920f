package campaign

import (
	"errors"
	"math"
	"testing"

	"snowcat/internal/dataset"
	"snowcat/internal/kernel"
	"snowcat/internal/mlpct"
	"snowcat/internal/pic"
	"snowcat/internal/predictor"
	"snowcat/internal/strategy"
)

func smallOpts() mlpct.Options { return mlpct.Options{ExecBudget: 6, InferenceCap: 40} }

func TestRunPCTCampaign(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(1))
	r := NewRunner(k)
	h, err := r.Run(Config{
		Name: "PCT", Seed: 2, NumCTIs: 8,
		Opts: smallOpts(), Cost: PaperCosts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.CTIs != 8 || len(h.Points) != 8 {
		t.Fatalf("points = %d", len(h.Points))
	}
	if h.FinalRaces == 0 {
		t.Fatal("no races found")
	}
	if h.TotalInfers != 0 {
		t.Fatal("PCT used inferences")
	}
	// Monotonic clock and coverage.
	for i := 1; i < len(h.Points); i++ {
		if h.Points[i].Hours < h.Points[i-1].Hours {
			t.Fatal("clock went backwards")
		}
		if h.Points[i].Races < h.Points[i-1].Races {
			t.Fatal("race coverage decreased")
		}
		if h.Points[i].Blocks < h.Points[i-1].Blocks {
			t.Fatal("block coverage decreased")
		}
	}
	// Clock accounting: execs × 2.8s.
	wantHours := float64(h.TotalExecs) * 2.8 / 3600
	gotHours := h.Points[len(h.Points)-1].Hours
	if math.Abs(gotHours-wantHours) > 1e-9 {
		t.Fatalf("clock %v, want %v", gotHours, wantHours)
	}
}

func TestRunMLPCTCampaignChargesInference(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(3))
	r := NewRunner(k)
	h, err := r.Run(Config{
		Name: "MLPCT", Seed: 4, NumCTIs: 5,
		Opts: smallOpts(), Cost: PaperCosts().WithStartup(2),
		Pred: predictor.AllPos{}, Strat: strategy.NewS1(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.TotalInfers == 0 {
		t.Fatal("MLPCT without inferences")
	}
	// Start-up charge present: first point at >= 2 hours.
	if h.Points[0].Hours < 2 {
		t.Fatalf("start-up not charged: %v", h.Points[0].Hours)
	}
	want := 2 + (float64(h.TotalExecs)*2.8+float64(h.TotalInfers)*0.015)/3600
	got := h.Points[len(h.Points)-1].Hours
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("clock %v, want %v", got, want)
	}
}

func TestSameSeedSameStream(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(5))
	r := NewRunner(k)
	run := func() *History {
		h, err := r.Run(Config{Name: "x", Seed: 7, NumCTIs: 5, Opts: smallOpts(), Cost: PaperCosts()})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	h1, h2 := run(), run()
	if h1.FinalRaces != h2.FinalRaces || h1.TotalExecs != h2.TotalExecs {
		t.Fatal("campaign not deterministic")
	}
}

func TestHoursToReachAndRacesAtHour(t *testing.T) {
	h := &History{Points: []Point{
		{Hours: 1, Races: 10},
		{Hours: 2, Races: 25},
		{Hours: 3, Races: 30},
	}}
	if got := h.HoursToReach(25); got != 2 {
		t.Fatalf("HoursToReach(25) = %v", got)
	}
	if got := h.HoursToReach(31); got != -1 {
		t.Fatalf("HoursToReach(31) = %v", got)
	}
	if got := h.RacesAtHour(2.5); got != 25 {
		t.Fatalf("RacesAtHour(2.5) = %d", got)
	}
	if got := h.RacesAtHour(0.5); got != 0 {
		t.Fatalf("RacesAtHour(0.5) = %d", got)
	}
}

func TestRunRejectsZeroCTIs(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(7))
	if _, err := NewRunner(k).Run(Config{}); err == nil {
		t.Fatal("expected error")
	}
}

func trainTiny(t *testing.T, k *kernel.Kernel, seed uint64) *TrainedModel {
	t.Helper()
	tm, err := Train(k, TrainOptions{
		Name:           "PIC-tiny",
		Model:          pic.Config{Dim: 10, Layers: 2, LR: 3e-3, Epochs: 1, Seed: seed, PosWeight: 8},
		Data:           dataset.Config{Seed: seed + 1, NumCTIs: 10, InterleavingsPerCTI: 4},
		PretrainEpochs: 1, StartupHours: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

func TestTrainPipeline(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(9))
	tm := trainTiny(t, k, 10)
	if tm.Model == nil || tm.TC == nil || tm.StartupHours != 5 {
		t.Fatal("trained model incomplete")
	}
	if tm.Predictor().Name() != "PIC-tiny" {
		t.Fatal("predictor name")
	}
	if tm.ValidReport.Graphs == 0 {
		t.Fatal("no validation report")
	}
}

// TestTrainRejectsForeignKernelDataset pins the preloaded-dataset guard:
// a dataset collected on the default kernel names blocks the small kernel
// lacks, and training on it fails with ErrKernelMismatch instead of
// index-panicking in the token cache.
func TestTrainRejectsForeignKernelDataset(t *testing.T) {
	big := kernel.Generate(kernel.DefaultConfig(1))
	ds, err := dataset.NewCollector(big, 2).Collect(dataset.Config{Seed: 3, NumCTIs: 3, InterleavingsPerCTI: 2})
	if err != nil {
		t.Fatal(err)
	}
	small := kernel.Generate(kernel.SmallConfig(1))
	_, err = Train(small, TrainOptions{
		Name:    "PIC-foreign",
		Model:   pic.Config{Dim: 8, Layers: 1, Epochs: 1, Seed: 4},
		Dataset: ds,
	})
	if !errors.Is(err, dataset.ErrKernelMismatch) {
		t.Fatalf("Train on a foreign-kernel dataset: err %v, want ErrKernelMismatch", err)
	}
}

func TestFineTuneAndRebind(t *testing.T) {
	base := kernel.SmallConfig(11)
	k1 := kernel.Generate(base)
	k2 := kernel.Generate(kernel.Mutate(base, "v6.1", 12, 0.3, 2, 1))
	tm := trainTiny(t, k1, 13)

	ft, err := FineTune(tm, k2, TrainOptions{
		Name:         "PIC.ft.sml",
		Data:         dataset.Config{Seed: 14, NumCTIs: 5, InterleavingsPerCTI: 3},
		StartupHours: 2,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ft.Name != "PIC.ft.sml" || ft.StartupHours != 2 {
		t.Fatal("fine-tuned metadata")
	}
	// Base model untouched by fine-tuning.
	if &tm.Model.Head.W.Val[0] == &ft.Model.Head.W.Val[0] {
		t.Fatal("fine-tune aliases base weights")
	}

	rb := Rebind(tm, k2, "PIC-5-on-6.1")
	if rb.Model != tm.Model {
		t.Fatal("rebind must share the model")
	}
	if rb.TC == tm.TC {
		t.Fatal("rebind must rebuild the token cache")
	}
	if len(rb.TC.IDs) != k2.NumBlocks() {
		t.Fatal("rebound token cache has wrong size")
	}

	// Both usable in a campaign on k2.
	r := NewRunner(k2)
	h, err := r.Run(Config{
		Name: "ft", Seed: 15, NumCTIs: 3, Opts: smallOpts(),
		Cost: PaperCosts().WithStartup(ft.StartupHours),
		Pred: ft.Predictor(), Strat: strategy.NewS1(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.CTIs != 3 {
		t.Fatal("campaign incomplete")
	}
}

func TestFilterModel(t *testing.T) {
	// A perfect filter: every accepted test is fruitful.
	perfect := FilterModel{Rho: 0.1, Recall: 1, FPR: 0}
	if perfect.ExecsPerFruitful() != 1 {
		t.Fatalf("perfect filter: %v", perfect.ExecsPerFruitful())
	}
	// No filter: accept everything; executions per fruitful = 1/rho.
	none := FilterModel{Rho: 0.1, Recall: 1, FPR: 1}
	if math.Abs(none.ExecsPerFruitful()-10) > 1e-9 {
		t.Fatalf("no-filter: %v", none.ExecsPerFruitful())
	}
	// A realistic filter reduces executions vs no filter.
	real := FilterModel{Rho: 0.1, Recall: 0.7, FPR: 0.1}
	if real.ExecsPerFruitful() >= none.ExecsPerFruitful() {
		t.Fatal("filter should reduce executions per fruitful test")
	}
	// And reduces total time when inference is much cheaper than execution.
	cost := PaperCosts()
	if real.SecondsPerFruitful(cost) >= none.SecondsPerFruitful(CostModel{ExecSeconds: cost.ExecSeconds}) {
		t.Fatal("filter should reduce seconds per fruitful test")
	}
	// Degenerate filter.
	dead := FilterModel{Rho: 0.1, Recall: 0, FPR: 0}
	if dead.ExecsPerFruitful() < 1e17 || dead.CandidatesPerExec() < 1e17 {
		t.Fatal("dead filter should report huge costs")
	}
	if dead.PrecisionAmongAccepted() != 0 {
		t.Fatal("dead filter precision")
	}
}

func TestMLPCTBeatsPCTOnSameBudget(t *testing.T) {
	// The headline §5.3 claim at unit-test scale: with a trained model and
	// the S1 strategy, MLPCT reaches at least as much race coverage as PCT
	// under the same per-CTI execution budget, while executing fewer or
	// equal dynamic tests.
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	k := kernel.Generate(kernel.SmallConfig(17))
	tm, err := Train(k, TrainOptions{
		Name:           "PIC",
		Model:          pic.Config{Dim: 12, Layers: 2, LR: 3e-3, Epochs: 2, Seed: 18, PosWeight: 8},
		Data:           dataset.Config{Seed: 19, NumCTIs: 30, InterleavingsPerCTI: 6},
		PretrainEpochs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(k)
	opts := mlpct.Options{ExecBudget: 8, InferenceCap: 60}
	pct, err := r.Run(Config{Name: "PCT", Seed: 20, NumCTIs: 12, Opts: opts, Cost: PaperCosts()})
	if err != nil {
		t.Fatal(err)
	}
	ml, err := r.Run(Config{
		Name: "MLPCT", Seed: 20, NumCTIs: 12, Opts: opts, Cost: PaperCosts(),
		Pred: tm.Predictor(), Strat: strategy.NewS1(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ml.TotalExecs > pct.TotalExecs {
		t.Fatalf("MLPCT executed more tests (%d) than PCT (%d)", ml.TotalExecs, pct.TotalExecs)
	}
	if ml.FinalRaces < pct.FinalRaces/2 {
		t.Fatalf("MLPCT races %d collapsed vs PCT %d", ml.FinalRaces, pct.FinalRaces)
	}
}
