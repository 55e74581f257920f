package main

import (
	"fmt"

	"snowcat/internal/campaign"
	"snowcat/internal/strategy"
	"snowcat/internal/trainer"
)

// cmdLearn runs the closed learning loop: an MLPCT campaign served from a
// versioned registry, with executed outcomes streamed back as labelled
// examples and the model warm-start retrained and hot-swapped on the
// simulated clock. -retrain-every 0 runs the frozen-model baseline.
func cmdLearn(args []string) error {
	fs, seed := newFlagSet("learn")
	size := fs.String("size", "small", "kernel size preset")
	model := fs.String("model", "pic.gob", "model file to warm-start from (v1)")
	ctis := fs.Int("ctis", 100, "CTIs in the stream")
	budget := fs.Int("budget", 20, "dynamic executions per CTI")
	every := fs.Float64("retrain-every", 600, "simulated seconds between retrain rounds (0 freezes the model)")
	minNew := fs.Int("min-new", 8, "fresh streamed examples required before a due round retrains")
	tune := fs.Bool("tune", false, "retune the decision threshold on each round's fresh batch")
	buffer := fs.Int("buffer", 64, "outcome bus buffer (publishes beyond it flush inline)")
	ef := newExploreFlags(fs)
	strat := strategyFlag(fs, "s4", "MLPCT selection strategy spec (s4 prefers uncertain candidates — active learning)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if strategyListed(*strat) {
		return nil
	}
	k, _, err := kernelFromFlags(*seed, *size)
	if err != nil {
		return err
	}
	st, err := strategy.New(*strat)
	if err != nil {
		return err
	}
	m, tc, err := loadModel(*model, k)
	if err != nil {
		return err
	}
	res, err := ef.resilience()
	if err != nil {
		return err
	}

	out, err := trainer.Learn(k, m, tc, trainer.LoopConfig{
		Name: "LEARN-" + st.Name(), Seed: *seed + 30, NumCTIs: *ctis,
		Opts: campaignOptions(*budget), Cost: campaign.PaperCosts(),
		Strat: st, Parallel: *ef.parallel, Resilience: res,
		Train:  trainer.Config{RetrainEvery: *every, MinNew: *minNew, Tune: *tune},
		Buffer: *buffer,
	})
	if err != nil {
		return err
	}

	h := out.Hist
	last := h.Points[len(h.Points)-1]
	fmt.Printf("%-10s races=%d blocks=%d execs=%d infers=%d simulated-hours=%.2f bugs=%v\n",
		h.Name, h.FinalRaces, h.FinalBlocks, h.TotalExecs, h.TotalInfers, last.Hours, bugIDs(h))
	fmt.Printf("stream: examples=%d deduped=%d\n", out.Examples, out.Deduped)
	fmt.Printf("versions: %v\n", out.Versions)
	for _, r := range out.Rounds {
		fmt.Printf("  %s at %.0fs: new=%d total=%d loss=%.4f threshold=%.3f\n",
			r.Version, r.AtSeconds, r.New, r.Total, r.Loss, r.Threshold)
	}
	if out.ExecsToFirstBug >= 0 {
		fmt.Printf("first planted bug after %d executions\n", out.ExecsToFirstBug)
	} else {
		fmt.Println("no planted bug triggered")
	}
	return nil
}
