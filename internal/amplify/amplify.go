package amplify

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"snowcat/internal/cfg"
	"snowcat/internal/ctgraph"
	"snowcat/internal/explore"
	"snowcat/internal/kernel"
	"snowcat/internal/parallel"
	"snowcat/internal/predictor"
	"snowcat/internal/ski"
	"snowcat/internal/strategy"
	"snowcat/internal/syz"
	"snowcat/internal/xrand"
)

// Sentinel errors for callers to errors.Is against.
var (
	// ErrBadWitness reports a witness missing a required part (schedule,
	// profiles) or whose schedule fails ski validation.
	ErrBadWitness = errors.New("amplify: invalid witness")
	// ErrBadConfig reports an unusable configuration (no executor).
	ErrBadConfig = errors.New("amplify: invalid config")
)

// Witness is one observed failure: the CTI and schedule under which BugID
// fired, plus the STIs' sequential profiles (the coordinate system every
// neighborhood edit and trial perturbation moves in).
//
// TraceA/TraceB, when set, replace the sequential instruction traces as
// that coordinate system. Bug paths are often sequentially unreachable —
// the whole point of a concurrency bug — so a hint parked on one (say, a
// TOCTOU check-to-use gap) has no sequential position and would stay
// frozen through every edit and perturbation. CoverageTraces reconstructs
// per-thread traces from the failing run itself, putting those hints back
// on the map.
type Witness struct {
	CTI    ski.CTI
	Sched  ski.Schedule
	BugID  int32
	ProfA  *syz.Profile
	ProfB  *syz.Profile
	TraceA []ski.InstrRef
	TraceB []ski.InstrRef
}

// traces returns the witness's per-thread coordinate system: the explicit
// failing-run traces when set, the sequential profiles otherwise.
func (w *Witness) traces() [2][]ski.InstrRef {
	t := [2][]ski.InstrRef{w.ProfA.InstrTrace, w.ProfB.InstrTrace}
	if w.TraceA != nil {
		t[0] = w.TraceA
	}
	if w.TraceB != nil {
		t[1] = w.TraceB
	}
	return t
}

// CoverageTraces reconstructs per-thread instruction traces from a failing
// run's per-thread block coverage: each thread's covered blocks, in block
// ID order (generation order approximates program order), expanded to
// their instructions. The reconstruction is coarser than a true dynamic
// trace — loops collapse, skipped paths interleave — but it covers every
// instruction the thread actually reached, including blocks no sequential
// run executes.
func CoverageTraces(k *kernel.Kernel, res *ski.Result) [2][]ski.InstrRef {
	var out [2][]ski.InstrRef
	for th := 0; th < 2; th++ {
		for id, covered := range res.CoveredBy[th] {
			if !covered {
				continue
			}
			for idx := range k.Blocks[id].Instrs {
				out[th] = append(out[th], ski.InstrRef{Block: int32(id), Idx: int32(idx)})
			}
		}
	}
	return out
}

// Config controls one amplification run. The zero value of every knob
// selects a sensible default; only Exec is required.
type Config struct {
	// Radius is the neighborhood edit radius in trace positions (default 4).
	Radius int
	// Trials is the number of noise-perturbed executions a candidate's
	// reproduction rate is estimated over (default 8). Trial 0 always runs
	// the candidate unperturbed, so a true witness's baseline rate is at
	// least 1/Trials.
	Trials int
	// Noise is the per-trial jitter magnitude in trace positions
	// (default 2): the deterministic stand-in for executor timing noise.
	Noise int
	// TopK bounds how many predicted-best neighbors execute per round when
	// Pred is set (default 8); <= 0 with Pred nil executes exhaustively.
	TopK int
	// Rounds bounds the hill-climb (default 3); the climb also stops at
	// the first round that fails to improve the best rate.
	Rounds int
	// Seed drives every draw: same seed, same run.
	Seed uint64
	// Exec runs every trial (required); explore.DefaultExecutor or a
	// wrapper around it.
	Exec explore.Executor
	// Pred, when set, ranks neighbors by predicted similarity to the
	// witness's coverage plus predicted bug-block coverage, and only the
	// TopK best execute (the PIC-guided pruning path).
	Pred predictor.Predictor
	// Strat, when set together with Pred, additionally skips neighbors
	// whose predicted coverage duplicates an already-executed candidate
	// (strategy.Select semantics).
	Strat strategy.Strategy
	// Led, when set, accounts every proposal, inference, and execution on
	// the simulated clock.
	Led *explore.Ledger
	// Parallel bounds the candidate worker pool; <= 0 selects GOMAXPROCS.
	// Results are bit-identical at any worker count.
	Parallel int
	// StepLimit caps each execution; <= 0 keeps the global bound.
	StepLimit int
	// MidRun switches trial noise from pre-planned hint jitter to in-run
	// SchedulePoint hook preemptions (ski.ExecHooks). Requires an executor
	// implementing explore.HookedExecutor (DefaultExecutor does); other
	// executors fall back to pre-planned jitter.
	MidRun bool
}

func (c *Config) setDefaults() {
	if c.Radius <= 0 {
		c.Radius = 4
	}
	if c.Trials <= 0 {
		c.Trials = 8
	}
	if c.Noise <= 0 {
		c.Noise = 2
	}
	if c.TopK <= 0 {
		c.TopK = 8
	}
	if c.Rounds <= 0 {
		c.Rounds = 3
	}
}

// Candidate is one measured schedule.
type Candidate struct {
	Sched  ski.Schedule
	Key    string
	Hits   int
	Trials int
	Rate   float64 // Hits / Trials
}

// Report is the outcome of one amplification run.
type Report struct {
	// Baseline is the witness schedule's own measured reproduction rate.
	Baseline Candidate
	// Best is the highest-rate schedule found (the witness itself when no
	// neighbor beats it). Ties keep the earliest measurement.
	Best Candidate
	// Rounds is the number of hill-climb rounds that executed candidates.
	Rounds int
	// Generated counts distinct neighbors generated across rounds;
	// Executed counts those actually measured; Pruned is the difference
	// attributable to predictor ranking, strategy dedupe, and
	// cross-round dedupe.
	Generated int
	Executed  int
	Pruned    int
	// Execs counts dynamic executions (Trials per measured candidate).
	Execs int
	// ExecsTo90 is the cumulative execution count, in canonical fold
	// order, at which a candidate with rate >= 0.9 was first fully
	// measured; -1 when no candidate reached 90%.
	ExecsTo90 int
	// Lift is Best.Rate / Baseline.Rate (baseline is never zero for a
	// true witness: trial 0 reproduces it).
	Lift float64
}

// Run amplifies the witness: it measures the witness schedule's baseline
// reproduction rate, then hill-climbs through the schedule neighborhood —
// optionally pruned to the predictor's top-K — re-estimating each
// candidate's rate over Config.Trials noise-perturbed executions. The run
// is deterministic per seed and worker-count invariant.
func Run(w Witness, opt Config) (*Report, error) {
	if opt.Exec == nil {
		return nil, fmt.Errorf("%w: Exec is required", ErrBadConfig)
	}
	if w.ProfA == nil || w.ProfB == nil {
		return nil, fmt.Errorf("%w: sequential profiles are required", ErrBadWitness)
	}
	if err := w.Sched.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadWitness, err)
	}
	opt.setDefaults()
	traces := w.traces()
	root := xrand.New(opt.Seed)
	rep := &Report{ExecsTo90: -1}

	// Predictor setup: one schedule-independent base per run, shared by
	// every round's scoring sweep.
	var base *ctgraph.Base
	var witnessScores []float64
	var bugBlock int32 = -1
	if opt.Pred != nil {
		k := opt.Exec.Kernel()
		builder := ctgraph.NewBuilder(k, cfg.Build(k))
		base = builder.BuildBase(w.CTI, w.ProfA, w.ProfB)
		if bug := findBug(k, w.BugID); bug != nil {
			bugBlock = bug.BugBlock
		}
		predictor.BeginCTI(opt.Pred, base)
		witnessScores = predictor.ScoreAll(opt.Pred, []*ctgraph.Graph{base.WithSchedule(w.Sched)}, opt.Parallel)[0]
		predictor.EndCTI(opt.Pred)
		charge(opt.Led, 0, 1)
	}

	// Baseline: the witness's own rate under trial noise.
	baseSeeds := trialSeeds(root, "base", 0, opt.Trials)
	cand, err := measure(w, w.Sched, baseSeeds, traces, opt)
	if err != nil {
		return nil, err
	}
	rep.Baseline = cand
	rep.Best = cand
	rep.Executed++
	foldExecs(rep, cand)
	charge(opt.Led, cand.Trials, 0)

	measured := map[string]bool{cand.Key: true}
	for round := 1; round <= opt.Rounds; round++ {
		neigh := Neighbors(rep.Best.Sched, traces, opt.Radius,
			root.SplitNamed(fmt.Sprintf("gen-%d", round)).Uint64())
		// Cross-round dedupe: never re-measure a schedule.
		fresh := neigh[:0]
		for _, s := range neigh {
			if !measured[s.Key()] {
				fresh = append(fresh, s)
			}
		}
		rep.Generated += len(fresh)
		propose(opt.Led, len(fresh))
		if len(fresh) == 0 {
			break
		}

		selected := fresh
		if opt.Pred != nil {
			selected = rank(fresh, w, base, bugBlock, witnessScores, rep, opt)
		}
		if len(selected) == 0 {
			break
		}

		// Pre-draw every trial seed, then fan candidates out: each worker
		// owns one candidate's full trial sweep, and the fold below is
		// sequential — bit-identical at any worker count.
		seeds := make([][]uint64, len(selected))
		for i := range selected {
			seeds[i] = trialSeeds(root, "cand", round*1_000_000+i, opt.Trials)
		}
		cands, err := parallel.Map(opt.Parallel, len(selected), func(i int) (Candidate, error) {
			return measure(w, selected[i], seeds[i], traces, opt)
		})
		if err != nil {
			return nil, err
		}
		rep.Rounds = round
		roundBest := rep.Best
		improved := false
		execs := 0
		for _, c := range cands {
			measured[c.Key] = true
			rep.Executed++
			execs += c.Trials
			foldExecs(rep, c)
			if c.Rate > roundBest.Rate {
				roundBest = c
				improved = true
			}
		}
		charge(opt.Led, execs, 0)
		if !improved {
			break
		}
		rep.Best = roundBest
	}
	rep.Pruned = rep.Generated - (rep.Executed - 1) // baseline is not generated
	if rep.Baseline.Rate > 0 {
		rep.Lift = rep.Best.Rate / rep.Baseline.Rate
	}
	return rep, nil
}

// rank scores the fresh neighbors with the predictor over the shared base
// (one batch under BeginCTI), orders them by predicted bug-block coverage
// plus cosine similarity to the witness's score vector, applies the optional
// strategy filter, and returns the top-K. Pure function of its inputs:
// the order ties break by generation position.
func rank(fresh []ski.Schedule, w Witness, base *ctgraph.Base, bugBlock int32,
	witnessScores []float64, rep *Report, opt Config) []ski.Schedule {
	graphs := make([]*ctgraph.Graph, len(fresh))
	for i, s := range fresh {
		graphs[i] = base.WithSchedule(s)
	}
	predictor.BeginCTI(opt.Pred, base)
	scores := predictor.ScoreAll(opt.Pred, graphs, opt.Parallel)
	predictor.EndCTI(opt.Pred)
	charge(opt.Led, 0, len(graphs))

	order := make([]int, len(fresh))
	keys := make([]float64, len(fresh))
	for i := range order {
		order[i] = i
		key := cosine(witnessScores, scores[i])
		if bugBlock >= 0 {
			if v := graphs[i].VertexOf(bugBlock); v >= 0 {
				key += scores[i][v]
			}
		}
		keys[i] = key
	}
	sort.SliceStable(order, func(a, b int) bool { return keys[order[a]] > keys[order[b]] })

	th := opt.Pred.Threshold()
	out := make([]ski.Schedule, 0, opt.TopK)
	for _, i := range order {
		if len(out) >= opt.TopK {
			break
		}
		if opt.Strat != nil {
			p := strategy.FromScores(scores[i], th)
			if !strategy.Select(opt.Strat, graphs[i], p) {
				continue
			}
		}
		out = append(out, fresh[i])
	}
	return out
}

// measure estimates one schedule's reproduction rate over len(seeds)
// trials. Trial 0 runs the schedule unperturbed; trial t derives its
// perturbation entirely from seeds[t], so the sweep is identical no
// matter which worker runs it.
func measure(w Witness, sched ski.Schedule, seeds []uint64, traces [2][]ski.InstrRef, opt Config) (Candidate, error) {
	c := Candidate{Sched: sched, Key: sched.Key(), Trials: len(seeds)}
	hx, hooked := opt.Exec.(explore.HookedExecutor)
	hooked = hooked && opt.MidRun
	for t, seed := range seeds {
		var res *ski.Result
		var err error
		switch {
		case t == 0:
			res, err = opt.Exec.ExecuteSteps(w.CTI, sched, opt.StepLimit)
		case hooked:
			res, err = hx.ExecuteHooked(w.CTI, sched, opt.StepLimit, hookNoise(seed, opt.Noise))
		default:
			res, err = opt.Exec.ExecuteSteps(w.CTI, perturb(sched, traces, opt.Noise, xrand.New(seed)), opt.StepLimit)
		}
		if err != nil {
			return c, fmt.Errorf("%w: %w", explore.ErrExec, err)
		}
		if res.HitBug(w.BugID) {
			c.Hits++
		}
	}
	c.Rate = float64(c.Hits) / float64(c.Trials)
	return c, nil
}

// hookNoise builds the mid-run noise hooks for one trial: a handful of
// extra preemptions at seed-drawn schedule-point counts — the in-run
// analogue of pre-planned hint jitter, available on hooked executors only.
func hookNoise(seed uint64, noise int) *ski.ExecHooks {
	rng := xrand.New(seed)
	points := make(map[int]bool, noise)
	for i := 0; i < noise; i++ {
		points[1+rng.Intn(400)] = true
	}
	n := 0
	return &ski.ExecHooks{SchedulePoint: func(thread int32, ref ski.InstrRef, step int) ski.HookAction {
		n++
		if points[n] {
			return ski.HookPreempt
		}
		return ski.HookContinue
	}}
}

// trialSeeds pre-draws the per-trial noise seeds for one candidate.
func trialSeeds(root *xrand.RNG, tag string, id, trials int) []uint64 {
	rng := root.SplitNamed(fmt.Sprintf("trials-%s-%d", tag, id))
	out := make([]uint64, trials)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

// foldExecs advances the report's execution counters for one measured
// candidate (sequential fold order defines ExecsTo90).
func foldExecs(rep *Report, c Candidate) {
	rep.Execs += c.Trials
	if rep.ExecsTo90 < 0 && c.Rate >= 0.9 {
		rep.ExecsTo90 = rep.Execs
	}
}

// cosine returns the cosine similarity of two aligned score vectors
// (0 when either is all-zero or lengths differ).
func cosine(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// findBug returns the planted bug with the given ID, or nil.
func findBug(k *kernel.Kernel, id int32) *kernel.Bug {
	for i := range k.Bugs {
		if k.Bugs[i].ID == id {
			return &k.Bugs[i]
		}
	}
	return nil
}

func charge(led *explore.Ledger, execs, inferences int) {
	if led != nil {
		led.Charge(execs, inferences)
	}
}

func propose(led *explore.Ledger, n int) {
	if led != nil {
		led.Propose(n)
	}
}
