package main

import (
	"fmt"

	"snowcat/internal/amplify"
	"snowcat/internal/explore"
	"snowcat/internal/kernel"
	"snowcat/internal/predictor"
	"snowcat/internal/ski"
	"snowcat/internal/strategy"
)

// cmdAmplify turns one observed failure into a reliable reproducer: it
// discovers (or accepts) a firing witness schedule for a planted bug,
// then hill-climbs through the schedule neighborhood re-estimating each
// candidate's reproduction rate under trial noise. With -model the
// neighbors are pruned to the predictor's top-K before executing.
func cmdAmplify(args []string) error {
	fs, seed := newFlagSet("amplify")
	size := fs.String("size", "small", "kernel size preset (small|default)")
	families := fs.Int("families", 1, "extra planted bugs per new family (missed-wakeup, double-free, toctou)")
	bugID := fs.Int("bug", -1, "planted bug ID to amplify (-1 amplifies every planted bug)")
	witness := fs.String("witness", "", "witness schedule key (Schedule.Key format; requires -bug); empty auto-discovers by sampling with a breakpoint-pair fallback")
	samples := fs.Int("samples", 5000, "schedule samples per bug for witness auto-discovery")
	radius := fs.Int("radius", 4, "neighborhood edit radius in trace positions")
	trials := fs.Int("trials", 8, "noise-perturbed executions per candidate rate estimate")
	rounds := fs.Int("rounds", 3, "max hill-climb rounds")
	topK := fs.Int("top-k", 8, "predicted-best neighbors executed per round when -model is set")
	model := fs.String("model", "", "PIC model file enabling predictor-guided top-k pruning")
	midrun := fs.Bool("midrun", false, "perturb trials with mid-run schedule-point preemptions instead of pre-planned hint jitter")
	par := parallelFlag(fs)
	strat := strategyFlag(fs, "", "dedupe strategy for the guided path (requires -model; empty disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if strategyListed(*strat) {
		return nil
	}

	_, cfg, err := kernelFromFlags(*seed, *size)
	if err != nil {
		return err
	}
	cfg.NumMissedWakeup += *families
	cfg.NumDoubleFree += *families
	cfg.NumTOCTOU += *families
	k := kernel.Generate(cfg)

	opt := amplify.Config{
		Radius: *radius, Trials: *trials, Rounds: *rounds, TopK: *topK,
		Seed: *seed + 70, Exec: explore.DefaultExecutor(k), Parallel: *par, MidRun: *midrun,
		Led: explore.NewLedger(explore.PaperCosts()),
	}
	if *model != "" {
		m, tc, err := loadModel(*model, k)
		if err != nil {
			return err
		}
		opt.Pred = predictor.NewPIC(m, tc, "PIC")
		if *strat != "" {
			if opt.Strat, err = strategy.New(*strat); err != nil {
				return err
			}
		}
	} else if *strat != "" {
		return fmt.Errorf("-strategy requires -model (the guided pruning path)")
	}

	bugs := k.Bugs
	if *bugID >= 0 {
		bug := (*kernel.Bug)(nil)
		for i := range k.Bugs {
			if int(k.Bugs[i].ID) == *bugID {
				bug = &k.Bugs[i]
			}
		}
		if bug == nil {
			return fmt.Errorf("no planted bug %d (genkernel lists them)", *bugID)
		}
		bugs = []kernel.Bug{*bug}
	}
	if *witness != "" && len(bugs) != 1 {
		return fmt.Errorf("-witness needs -bug to name the bug it reproduces")
	}

	for _, bug := range bugs {
		var w amplify.Witness
		if *witness != "" {
			sched, err := ski.ParseKey(*witness)
			if err != nil {
				return err
			}
			w, err = amplify.WitnessUnder(k, bug.ID, sched)
			if err != nil {
				return err
			}
		} else {
			w, err = amplify.DiscoverWitness(k, bug.ID, *samples, *seed+71)
			if err != nil {
				return err
			}
		}
		rep, err := amplify.Run(w, opt)
		if err != nil {
			return err
		}
		fmt.Printf("bug %d (%s): witness %s\n", bug.ID, bug.Kind, w.Sched.Key())
		fmt.Printf("  baseline %.2f -> best %.2f (lift %.2fx) via %s\n",
			rep.Baseline.Rate, rep.Best.Rate, rep.Lift, rep.Best.Key)
		fmt.Printf("  rounds=%d generated=%d executed=%d pruned=%d execs=%d execs-to-90=%d\n",
			rep.Rounds, rep.Generated, rep.Executed, rep.Pruned, rep.Execs, rep.ExecsTo90)
	}
	led := opt.Led
	fmt.Printf("total: %d dynamic executions, %d model inferences, %.1f simulated seconds\n",
		led.Execs(), led.Inferences(), led.Seconds())
	return nil
}
