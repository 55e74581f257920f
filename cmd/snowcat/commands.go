package main

import (
	"flag"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"snowcat/internal/campaign"
	"snowcat/internal/dataset"
	"snowcat/internal/explore"
	"snowcat/internal/faults"
	"snowcat/internal/kernel"
	"snowcat/internal/mlpct"
	"snowcat/internal/pic"
	"snowcat/internal/predictor"
	"snowcat/internal/razzer"
	"snowcat/internal/sim"
	"snowcat/internal/ski"
	"snowcat/internal/snowboard"
	"snowcat/internal/strategy"
	"snowcat/internal/syz"
)

// parallelFlag registers the shared -parallel flag. Every parallel path is
// deterministic, so the worker count changes wall-clock time only.
func parallelFlag(fs *flag.FlagSet) *int {
	return fs.Int("parallel", runtime.NumCPU(), "worker count for parallel phases (results are identical at any count)")
}

// strategyFlag registers the shared -strategy flag; specs resolve through
// the strategy registry (strategy.New).
func strategyFlag(fs *flag.FlagSet, def, usage string) *string {
	return fs.String("strategy", def, usage+"; '?' lists the registered strategies")
}

// strategyListed handles -strategy=?: it prints the registered strategies
// and reports that the invocation was informational, so the command
// returns without doing any work.
func strategyListed(spec string) bool {
	if spec != "?" {
		return false
	}
	fmt.Println("registered strategies:")
	for _, n := range strategy.Names() {
		fmt.Printf("  %s\n", n)
	}
	return true
}

// exploreFlags bundles every flag the exploration subcommands (campaign,
// razzer, snowboard) share beyond -seed: the worker pool plus the
// chaos-testing fault/resilience knobs. One registration point keeps the
// names, defaults, and help text identical everywhere; TestSharedFlagSets
// pins that each of these subcommands accepts the whole set.
type exploreFlags struct {
	parallel *int
	rate     *float64
	fseed    *uint64
	retries  *int
}

// newExploreFlags registers the shared exploration flag set.
func newExploreFlags(fs *flag.FlagSet) *exploreFlags {
	return &exploreFlags{
		parallel: parallelFlag(fs),
		rate:     fs.Float64("fault-rate", 0, "probability of injecting a fault per execution attempt (0 disables chaos testing)"),
		fseed:    fs.Uint64("fault-seed", 1, "seed of the deterministic fault injector"),
		retries:  fs.Int("retries", 0, "max retries per failed execution (0 keeps the policy default)"),
	}
}

// resilience builds a fresh resilience layer from the parsed chaos flags.
// The quarantine list is per-run state, so call once per campaign or
// reproduction run; nil means chaos testing is off (legacy fail-fast
// pipeline, bit-identical to builds without the faults package).
func (e *exploreFlags) resilience() (*explore.Resilience, error) {
	return resilienceFromFlags(*e.rate, *e.fseed, *e.retries)
}

// resilienceFromFlags builds the resilience layer the chaos flags describe,
// or nil (the legacy fail-fast pipeline, bit-identical to builds without
// the faults package) when chaos testing is off. The quarantine list is
// per-run state, so call this once per campaign/reproduction run.
func resilienceFromFlags(rate float64, seed uint64, retries int) (*explore.Resilience, error) {
	if rate <= 0 && retries <= 0 {
		return nil, nil
	}
	p := faults.DefaultPolicy()
	if retries > 0 {
		p.MaxRetries = retries
	}
	var inj *faults.Injector
	if rate > 0 {
		inj = faults.New(seed, rate)
	}
	return explore.NewResilience(inj, p)
}

// kernelFromFlags builds a kernel at the requested size.
func kernelFromFlags(seed uint64, size string) (*kernel.Kernel, kernel.GenConfig, error) {
	var cfg kernel.GenConfig
	switch size {
	case "small":
		cfg = kernel.SmallConfig(seed)
	case "default":
		cfg = kernel.DefaultConfig(seed)
	default:
		return nil, cfg, fmt.Errorf("unknown kernel size %q (small|default)", size)
	}
	return kernel.Generate(cfg), cfg, nil
}

// loadModel reads a model file and tokenises kernel k under its
// vocabulary. A vocabulary that does not cover k fails with an error
// matching pic.ErrVocabMismatch, instead of scoring k's unknown tokens as
// [UNK].
func loadModel(path string, k *kernel.Kernel) (*pic.Model, *pic.TokenCache, error) {
	m, err := pic.LoadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if err := m.CheckVocab(k); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, pic.NewTokenCache(k, m.Vocab), nil
}

func cmdGenKernel(args []string) error {
	fs, seed := newFlagSet("genkernel")
	size := fs.String("size", "small", "kernel size preset (small|default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	k, _, err := kernelFromFlags(*seed, *size)
	if err != nil {
		return err
	}
	st := k.ComputeStats()
	fmt.Printf("kernel %s (seed %d)\n", k.Version, *seed)
	fmt.Printf("  functions:        %d\n", st.Funcs)
	fmt.Printf("  basic blocks:     %d\n", st.Blocks)
	fmt.Printf("  instructions:     %d\n", st.Instrs)
	fmt.Printf("  syscalls:         %d\n", st.Syscalls)
	fmt.Printf("  shared globals:   %d\n", st.Globals)
	fmt.Printf("  locks:            %d\n", st.Locks)
	fmt.Printf("  cond branches:    %d (%d shared-guarded)\n", st.CondBranches, st.SharedGuardedBranches)
	fmt.Printf("  loads/stores:     %d/%d\n", st.LoadInstrs, st.StoreInstrs)
	fmt.Printf("  planted bugs:     %d\n", st.Bugs)
	for _, bug := range k.Bugs {
		fmt.Printf("    bug %d: %s, reader %s writer %s\n", bug.ID, bug.Kind,
			k.Syscalls[bug.ReaderSyscall].Name, k.Syscalls[bug.WriterSyscall].Name)
	}
	return nil
}

func cmdCollect(args []string) error {
	fs, seed := newFlagSet("collect")
	size := fs.String("size", "small", "kernel size preset")
	ctis := fs.Int("ctis", 50, "number of CTIs to collect")
	inter := fs.Int("interleavings", 8, "interleavings per CTI")
	out := fs.String("o", "", "save the dataset to this file (gob+gzip)")
	par := parallelFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	k, _, err := kernelFromFlags(*seed, *size)
	if err != nil {
		return err
	}
	col := dataset.NewCollector(k, *seed+1)
	ds, err := col.Collect(dataset.Config{Seed: *seed + 2, NumCTIs: *ctis, InterleavingsPerCTI: *inter, Parallel: *par})
	if err != nil {
		return err
	}
	fmt.Printf("collected %d labelled CT graphs across %d CTIs\n", ds.NumExamples(), len(ds.Groups))
	fmt.Printf("positive-URB rate: %.2f%% (paper: 1.1%%)\n", ds.PositiveURBRate()*100)
	exs := ds.Flatten()
	if len(exs) > 0 {
		fmt.Printf("example graph: %s\n", exs[0].G.Stats())
	}
	if *out != "" {
		if err := ds.SaveFile(*out); err != nil {
			return err
		}
		fmt.Printf("saved dataset to %s\n", *out)
	}
	return nil
}

func cmdTrain(args []string) error {
	fs, seed := newFlagSet("train")
	size := fs.String("size", "small", "kernel size preset")
	ctis := fs.Int("ctis", 60, "training CTIs")
	inter := fs.Int("interleavings", 16, "interleavings per CTI")
	dim := fs.Int("dim", 16, "model width")
	layers := fs.Int("layers", 3, "GCN depth")
	epochs := fs.Int("epochs", 3, "training epochs")
	out := fs.String("o", "pic.gob", "output model file")
	dsPath := fs.String("dataset", "", "train from a saved dataset instead of collecting")
	par := parallelFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dim < 1 {
		return fmt.Errorf("%w: -dim must be at least 1, got %d", errFlagDomain, *dim)
	}
	k, _, err := kernelFromFlags(*seed, *size)
	if err != nil {
		return err
	}
	var preloaded *dataset.Dataset
	if *dsPath != "" {
		preloaded, err = dataset.LoadFile(*dsPath)
		if err != nil {
			return err
		}
		fmt.Printf("loaded dataset: %d examples\n", preloaded.NumExamples())
	}
	tm, err := campaign.Train(k, campaign.TrainOptions{
		Dataset: preloaded,
		Name:    "PIC",
		Model: pic.Config{
			Dim: *dim, Layers: *layers, LR: 3e-3, Epochs: *epochs,
			Seed: *seed + 3, PosWeight: 8,
		},
		Data:           dataset.Config{Seed: *seed + 4, NumCTIs: *ctis, InterleavingsPerCTI: *inter, Parallel: *par},
		PretrainEpochs: 2,
	})
	if err != nil {
		return err
	}
	fmt.Printf("trained PIC: %d parameters, threshold %.3f\n", tm.Model.NumParams(), tm.Model.Threshold)
	fmt.Printf("validation URB metrics: %s\n", tm.ValidReport)
	if err := tm.Model.SaveFile(*out); err != nil {
		return err
	}
	fmt.Printf("saved to %s\n", *out)
	return nil
}

func cmdFineTune(args []string) error {
	fs, seed := newFlagSet("finetune")
	size := fs.String("size", "small", "base kernel size preset")
	model := fs.String("model", "pic.gob", "base model file")
	frac := fs.Float64("changed", 0.2, "fraction of functions changed in the new version")
	ctis := fs.Int("ctis", 15, "fine-tuning CTIs")
	epochs := fs.Int("epochs", 1, "fine-tuning epochs")
	out := fs.String("o", "pic-ft.gob", "output model file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, baseCfg, err := kernelFromFlags(*seed, *size)
	if err != nil {
		return err
	}
	k2 := kernel.Generate(kernel.Mutate(baseCfg, "next", *seed+10, *frac, 2, 1))
	m, tc, err := loadModel(*model, k2)
	if err != nil {
		return err
	}
	base := &campaign.TrainedModel{Name: "PIC", Model: m, TC: tc}
	ft, err := campaign.FineTune(base, k2, campaign.TrainOptions{
		Name: "PIC.ft",
		Data: dataset.Config{Seed: *seed + 11, NumCTIs: *ctis, InterleavingsPerCTI: 6},
	}, *epochs)
	if err != nil {
		return err
	}
	fmt.Printf("fine-tuned on %s: validation %s\n", k2.Version, ft.ValidReport)
	if err := ft.Model.SaveFile(*out); err != nil {
		return err
	}
	fmt.Printf("saved to %s\n", *out)
	return nil
}

func cmdEval(args []string) error {
	fs, seed := newFlagSet("eval")
	size := fs.String("size", "small", "kernel size preset")
	model := fs.String("model", "pic.gob", "model file")
	ctis := fs.Int("ctis", 25, "evaluation CTIs")
	inter := fs.Int("interleavings", 8, "interleavings per CTI")
	par := parallelFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	k, _, err := kernelFromFlags(*seed, *size)
	if err != nil {
		return err
	}
	m, tc, err := loadModel(*model, k)
	if err != nil {
		return err
	}
	col := dataset.NewCollector(k, *seed+20)
	ds, err := col.Collect(dataset.Config{Seed: *seed + 21, NumCTIs: *ctis, InterleavingsPerCTI: *inter, Parallel: *par})
	if err != nil {
		return err
	}
	exs := ds.Flatten()
	rate := ds.PositiveURBRate()
	preds := []predictor.Predictor{
		predictor.NewPIC(m, tc, "PIC"),
		predictor.AllPos{},
		predictor.FairCoin(*seed),
		predictor.BiasedCoin(rate, *seed+1),
	}
	fmt.Printf("%-12s %8s %8s %8s %8s %8s %8s\n", "Predictor", "F1", "Prec", "Recall", "Acc", "BA", "AP")
	for _, p := range preds {
		r := pic.EvaluateScorer(p, exs, p.Threshold(), pic.URBOnly)
		fmt.Printf("%-12s %7.2f%% %7.2f%% %7.2f%% %7.2f%% %7.2f%% %8.3f\n",
			p.Name(), r.F1*100, r.Precision*100, r.Recall*100, r.Accuracy*100, r.BalancedAcc*100, r.AP)
	}
	return nil
}

// campaignOptions maps a per-CTI budget to explorer options with the
// paper's 32x inference-to-execution oversampling ratio.
func campaignOptions(budget int) mlpct.Options {
	return mlpct.Options{ExecBudget: budget, InferenceCap: budget * 32, Batch: 32}
}

func cmdCampaign(args []string) error {
	fs, seed := newFlagSet("campaign")
	size := fs.String("size", "small", "kernel size preset")
	model := fs.String("model", "pic.gob", "model file (used by MLPCT)")
	ctis := fs.Int("ctis", 100, "CTIs in the stream")
	budget := fs.Int("budget", 20, "dynamic executions per CTI")
	progress := fs.Bool("progress", false, "print pipeline progress from the explore hooks")
	every := fs.Int("progress-every", 100, "executions between -progress lines")
	ef := newExploreFlags(fs)
	strat := strategyFlag(fs, "s1", "MLPCT selection strategy spec")
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

	// The progress observer rides the pipeline's explore.Hooks: executed
	// schedules are reported from the campaign's canonical fold and
	// per-CTI budget exhaustion from the MLPCT selection walks, so the
	// output is deterministic at any -parallel value.
	var hooks *explore.Hooks
	exhausted := 0
	if *progress {
		execs := 0
		hooks = &explore.Hooks{
			ScheduleExecuted: func(c explore.Candidate, res *ski.Result) {
				execs++
				if *every > 0 && execs%*every == 0 {
					fmt.Printf("  ... %d executions folded (cti %d)\n", execs, c.CTI.ID)
				}
			},
			BudgetExhausted: func(cti ski.CTI, led *explore.Ledger) { exhausted++ },
		}
	}

	r := campaign.NewRunner(k)
	opts := campaignOptions(*budget)
	// Each run gets a fresh resilience layer (see exploreFlags.resilience).
	resPCT, err := ef.resilience()
	if err != nil {
		return err
	}
	pct, err := r.Run(campaign.Config{
		Name: "PCT", Seed: *seed + 30, NumCTIs: *ctis, Opts: opts,
		Cost: campaign.PaperCosts(), Parallel: *ef.parallel, Hooks: hooks,
		Resilience: resPCT,
	})
	if err != nil {
		return err
	}
	resML, err := ef.resilience()
	if err != nil {
		return err
	}
	ml, err := r.Run(campaign.Config{
		Name: "MLPCT-" + st.Name(), Seed: *seed + 30, NumCTIs: *ctis, Opts: opts,
		Cost: campaign.PaperCosts(), Parallel: *ef.parallel, Hooks: hooks,
		Pred: predictor.NewPIC(m, tc, "PIC"), Strat: st,
		Resilience: resML,
	})
	if err != nil {
		return err
	}
	if *progress {
		fmt.Printf("MLPCT budget/cap exhausted on %d of %d CTIs\n", exhausted, *ctis)
	}
	for _, h := range []*campaign.History{pct, ml} {
		last := h.Points[len(h.Points)-1]
		fmt.Printf("%-10s races=%d blocks=%d execs=%d infers=%d simulated-hours=%.2f bugs=%v\n",
			h.Name, h.FinalRaces, h.FinalBlocks, h.TotalExecs, h.TotalInfers, last.Hours, bugIDs(h))
		if resPCT != nil {
			fmt.Printf("%-10s   chaos: retries=%d skipped=%d quarantined=%d\n",
				h.Name, h.Retries, h.Skipped, h.Quarantined)
		}
	}
	return nil
}

func bugIDs(h *campaign.History) []int32 {
	var out []int32
	for id := range h.BugsFound {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func cmdRazzer(args []string) error {
	fs, seed := newFlagSet("razzer")
	size := fs.String("size", "small", "kernel size preset")
	model := fs.String("model", "", "model file for Razzer-PIC (omit to skip)")
	pool := fs.Int("pool", 40, "random STIs in the fuzzing pool")
	schedules := fs.Int("schedules", 200, "random schedules per candidate CTI")
	maxCTIs := fs.Int("maxctis", 20, "cap on candidates per mode")
	ef := newExploreFlags(fs)
	strat := strategyFlag(fs, "s1", "selection strategy spec (validated against the registry; razzer's reproduction modes draw schedules strategy-free)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *schedules < 1 {
		return fmt.Errorf("%w: -schedules must be at least 1, got %d", errFlagDomain, *schedules)
	}
	if *maxCTIs < 1 {
		return fmt.Errorf("%w: -maxctis must be at least 1, got %d", errFlagDomain, *maxCTIs)
	}
	if strategyListed(*strat) {
		return nil
	}
	if _, err := strategy.New(*strat); err != nil {
		return err
	}
	k, _, err := kernelFromFlags(*seed, *size)
	if err != nil {
		return err
	}
	var pred predictor.Predictor
	if *model != "" {
		m, tc, err := loadModel(*model, k)
		if err != nil {
			return err
		}
		pred = predictor.NewPIC(m, tc, "PIC")
	}

	var syscalls []int32
	var targets []razzer.TargetRace
	for _, bug := range k.Bugs {
		tr, err := razzer.RaceFromBug(k, bug)
		if err != nil {
			return err
		}
		targets = append(targets, tr)
		syscalls = append(syscalls, bug.ReaderSyscall, bug.WriterSyscall)
	}
	stis := razzer.BuildPool(k, syscalls, *pool, 4, *seed+40)
	finder, err := razzer.NewFinder(k, stis)
	if err != nil {
		return err
	}
	modes := []razzer.Mode{razzer.Conservative, razzer.Relax}
	if pred != nil {
		modes = append(modes, razzer.PICFiltered)
	}
	cfg := razzer.ReproConfig{SchedulesPerCTI: *schedules, Seed: *seed + 41, ExecSeconds: 2.8, Shuffles: 1000, Parallel: *ef.parallel}
	for ti, tr := range targets {
		fmt.Printf("race %c (%v):\n", rune('A'+ti), tr)
		for _, mode := range modes {
			ctis := finder.FindCTIs(tr, mode, pred, *seed+uint64(42+ti))
			if len(ctis) > *maxCTIs {
				ctis = ctis[:*maxCTIs]
			}
			// Fresh resilience layer per reproduction run: the per-candidate
			// give-up tallies must not leak across modes.
			cfg.Resilience, err = ef.resilience()
			if err != nil {
				return err
			}
			res, err := finder.Reproduce(tr, ctis, cfg)
			if err != nil {
				return err
			}
			res.Mode = mode
			fmt.Printf("  %s\n", res)
			if cfg.Resilience != nil {
				fmt.Printf("    chaos: retries=%d skipped=%d quarantined=%d\n",
					res.Retries, res.Skipped, res.Quarantined)
			}
		}
	}
	led := finder.Ledger()
	fmt.Printf("total: %d dynamic executions, %d model inferences\n", led.Execs(), led.Inferences())
	return nil
}

func cmdSnowboard(args []string) error {
	fs, seed := newFlagSet("snowboard")
	size := fs.String("size", "small", "kernel size preset")
	model := fs.String("model", "pic.gob", "model file for SB-PIC")
	members := fs.Int("members", 20, "CTI candidates per bug cluster")
	trials := fs.Int("trials", 500, "sampling trials per cluster")
	ef := newExploreFlags(fs)
	strats := strategyFlag(fs, "s1,s2", "comma-separated strategy specs for the SB-PIC samplers")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if strategyListed(*strats) {
		return nil
	}
	k, _, err := kernelFromFlags(*seed, *size)
	if err != nil {
		return err
	}
	m, tc, err := loadModel(*model, k)
	if err != nil {
		return err
	}
	pred := predictor.NewPIC(m, tc, "PIC")
	builder := campaign.NewRunner(k).Builder
	gen := syz.NewGenerator(k, *seed+50)

	// SB-PIC graph building and scoring fan out across -parallel workers;
	// the sampled sets are identical at any count.
	picSampler := func(strat strategy.Strategy) *snowboard.PIC {
		s := snowboard.NewPIC(builder, pred, strat)
		s.Batch, s.Parallel = 8, *ef.parallel
		return s
	}
	samplers := []snowboard.Sampler{
		snowboard.NewRND(0.25, *seed+51),
		snowboard.NewRND(0.50, *seed+52),
		snowboard.NewRND(0.75, *seed+53),
	}
	for _, spec := range strings.Split(*strats, ",") {
		st, err := strategy.New(strings.TrimSpace(spec))
		if err != nil {
			return err
		}
		samplers = append(samplers, picSampler(st))
	}

	res, err := ef.resilience()
	if err != nil {
		return err
	}
	// One cumulative ledger across every member exploration so the chaos
	// counters can be reported at the end; nil resilience leaves it at the
	// legacy per-execution charges.
	fled := explore.NewLedger(explore.CostModel{})

	found := 0
	for _, bug := range k.Bugs {
		var ms []snowboard.Member
		for i := 0; i < *members; i++ {
			a := gen.GenerateFor(bug.WriterSyscall)
			b := gen.GenerateFor(bug.ReaderSyscall)
			pa, err := syz.Run(k, a)
			if err != nil {
				return err
			}
			pb, err := syz.Run(k, b)
			if err != nil {
				return err
			}
			ms = append(ms, snowboard.Member{CTI: ski.CTI{ID: int64(i), A: a, B: b}, ProfA: pa, ProfB: pb})
		}
		for _, c := range snowboard.ClusterCTIs(ms) {
			if c.Key.Addr != bug.GuardVars[2] || len(c.Members) < 4 {
				continue
			}
			trig := make([]bool, len(c.Members))
			any, all := false, true
			for i, mem := range c.Members {
				hit, _, err := snowboard.ExploreR(k, mem, c, bug.ID, 20, *seed+uint64(60+i), res, fled, nil)
				if err != nil {
					return err
				}
				trig[i] = hit
				any = any || hit
				all = all && hit
			}
			if !any || all {
				continue
			}
			found++
			fmt.Printf("buggy cluster for bug %d: %d members, %d triggering\n",
				bug.ID, len(c.Members), count(trig))
			for _, s := range samplers {
				res := snowboard.RunTrials(c, s, trig, *trials)
				fmt.Printf("  %-14s bug-find-prob=%5.1f%% sampling=%5.1f%%\n",
					res.Sampler, res.BugFindProb*100, res.SamplingRate*100)
			}
			break
		}
	}
	if found == 0 {
		fmt.Println("no buggy cluster with mixed triggering members at this seed; try another -seed")
	}
	if res != nil {
		fmt.Printf("chaos: retries=%d skipped=%d quarantined=%d (%d executions)\n",
			fled.Retries(), fled.Skipped(), fled.Quarantined(), fled.Execs())
	}
	return nil
}

func count(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

func cmdTrace(args []string) error {
	fs, seed := newFlagSet("trace")
	size := fs.String("size", "small", "kernel size preset")
	ctiSeed := fs.Uint64("cti", 1, "seed selecting the CTI")
	schedSeed := fs.Uint64("sched", 1, "seed selecting the schedule")
	maxSteps := fs.Int("steps", 120, "maximum interleaving steps to print")
	if err := fs.Parse(args); err != nil {
		return err
	}
	k, _, err := kernelFromFlags(*seed, *size)
	if err != nil {
		return err
	}
	gen := syz.NewGenerator(k, *ctiSeed)
	a, b := gen.Generate(), gen.Generate()
	pa, err := syz.Run(k, a)
	if err != nil {
		return err
	}
	pb, err := syz.Run(k, b)
	if err != nil {
		return err
	}
	cti := ski.CTI{ID: 0, A: a, B: b}
	sched := ski.NewSampler(pa, pb, *schedSeed).Next()

	fmt.Printf("CT: %s\n", cti)
	for i, h := range sched.Hints {
		fmt.Printf("hint %d: thread %d yields after %s\n", i, h.Thread, h.Ref)
	}
	fmt.Println()
	return traceExecution(k, cti, sched, *maxSteps)
}

// traceExecution replays the interleaving step by step, printing a
// two-column timeline: thread A on the left, thread B on the right, with
// memory effects, lock transitions, switches, and bug hits annotated.
func traceExecution(k *kernel.Kernel, cti ski.CTI, sched ski.Schedule, maxSteps int) error {
	m := sim.NewMachine(k)
	threads := [2]*sim.Thread{
		sim.NewThread(m, 0, cti.A.Calls),
		sim.NewThread(m, 1, cti.B.Calls),
	}
	hints := sched.Hints
	cur := int32(0)
	printed := 0
	emit := func(th int32, text string) {
		if th == 0 {
			fmt.Printf("%4d | %-40s |\n", printed, text)
		} else {
			fmt.Printf("%4d | %40s | %s\n", printed, "", text)
		}
	}
	var ev sim.Event
	for printed < maxSteps {
		for len(hints) > 0 && threads[hints[0].Thread].State() == sim.Done {
			hints = hints[1:]
		}
		t := threads[cur]
		switch t.State() {
		case sim.Done, sim.BlockedOnLock:
			other := 1 - cur
			if threads[other].State() == sim.Runnable {
				fmt.Printf("     | %-40s |   <-- switch (thread %d %v)\n", "", cur, t.State())
				cur = other
				continue
			}
			if t.State() == sim.Done && threads[other].State() == sim.Done {
				fmt.Println("both threads done")
				return nil
			}
			return fmt.Errorf("deadlock")
		}
		pc := t.PC()
		blk := k.Block(pc.Block)
		instr := blk.Instrs[pc.Idx].String()
		if err := t.Step(&ev); err != nil {
			return err
		}
		if t.State() == sim.BlockedOnLock {
			emit(cur, fmt.Sprintf("%-24s  [blocked]", instr))
			continue
		}
		note := ""
		switch {
		case ev.Read:
			note = fmt.Sprintf("  g%d -> %d", ev.Addr, ev.Value)
		case ev.Write:
			note = fmt.Sprintf("  g%d <- %d", ev.Addr, ev.Value)
		case ev.LockAcq:
			note = "  [acquired]"
		case ev.LockRel:
			note = "  [released]"
		case ev.BugHit:
			note = fmt.Sprintf("  !!! BUG %d !!!", ev.BugID)
		}
		emit(cur, instr+note)
		printed++
		if len(hints) > 0 && hints[0].Thread == cur && hints[0].Ref == ev.Ref {
			hints = hints[1:]
			other := 1 - cur
			if threads[other].State() != sim.Done {
				fmt.Printf("     | %-40s |   <-- scheduling hint fired\n", "")
				cur = other
			}
		}
	}
	fmt.Printf("... truncated at %d steps\n", maxSteps)
	return nil
}
