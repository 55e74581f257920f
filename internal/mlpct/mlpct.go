// Package mlpct implements the MLPCT exploration algorithm of §5.3: PCT
// proposes candidate schedules for a CTI, the PIC predictor scores each
// candidate's CT graph, a selection strategy (§3.3) decides which
// candidates are interesting, and only those receive dynamic executions.
// The plain PCT explorer (SKI's baseline) is included for comparison.
//
// Both explorers are thin configurations of the shared explore.Walk
// pipeline (CandidateSource → GraphBuild → Score → Select → Execute); the
// per-CTI accounting in Plan and Outcome is a snapshot of the walk's
// explore.Ledger.
package mlpct

import (
	"fmt"

	"snowcat/internal/ctgraph"
	"snowcat/internal/explore"
	"snowcat/internal/kernel"
	"snowcat/internal/predictor"
	"snowcat/internal/race"
	"snowcat/internal/ski"
	"snowcat/internal/strategy"
	"snowcat/internal/syz"
)

// ErrExec reports a dynamic execution failure while running a plan; it is
// the explore package's sentinel re-exported so callers can errors.Is
// against either name.
var ErrExec = explore.ErrExec

// Prediction runs one model inference and packages it for the selection
// strategies: thresholded labels plus raw scores.
func Prediction(pred predictor.Predictor, g *ctgraph.Graph) strategy.Prediction {
	return strategy.FromScores(pred.Score(g), pred.Threshold())
}

// Options bounds one per-CTI exploration (§5.3.1 uses ExecBudget=50,
// InferenceCap=1600).
type Options struct {
	ExecBudget   int
	InferenceCap int
	// Batch is how many candidate schedules MLPCT proposes per round so
	// their CT graphs can be built and scored as one batch; <= 0 means 1.
	// The selection walk consumes candidates in proposal order and charges
	// only consumed ones, so the outcome is identical for any batch size.
	Batch int
	// Parallel bounds the worker pool for graph building, batched
	// inference, and dynamic executions; <= 0 means 1 (sequential).
	Parallel int
}

// DefaultOptions mirrors the paper's §5.3.1 configuration.
func DefaultOptions() Options { return Options{ExecBudget: 50, InferenceCap: 1600, Batch: 32} }

// batch returns the effective proposal batch size.
func (o Options) batch() int {
	if o.Batch <= 0 {
		return 1
	}
	return o.Batch
}

// workers returns the effective worker count.
func (o Options) workers() int {
	if o.Parallel <= 0 {
		return 1
	}
	return o.Parallel
}

// Outcome reports one per-CTI exploration.
type Outcome struct {
	Results    []*ski.Result  // dynamic executions actually performed
	Schedules  []ski.Schedule // the schedule of each result
	Proposed   int            // schedules proposed by the sampler
	Inferences int            // model inferences performed (MLPCT only)
	BugsHit    []int32        // planted bugs triggered, deduplicated
	Retries    int            // executions retried by the resilience layer
	Skipped    int            // candidates the resilience layer gave up on
}

// addResult appends a result and folds in its bug hits.
func (o *Outcome) addResult(res *ski.Result, sched ski.Schedule) {
	o.Results = append(o.Results, res)
	o.Schedules = append(o.Schedules, sched)
	for _, b := range res.BugsHit {
		found := false
		for _, x := range o.BugsHit {
			if x == b {
				found = true
				break
			}
		}
		if !found {
			o.BugsHit = append(o.BugsHit, b)
		}
	}
}

// UniqueRaces returns the number of unique potential data races across the
// outcome's executions (the per-CTI Data-race-coverage of §5.3).
func (o *Outcome) UniqueRaces() int {
	set := race.NewSet()
	for _, res := range o.Results {
		set.Add(race.Detect(res))
	}
	return set.Size()
}

// ScheduleDependentBlocks returns the number of unique blocks covered in
// the outcome's concurrent executions excluding all SCBs of the CT —
// §5.3's schedule-dependent block coverage metric.
func (o *Outcome) ScheduleDependentBlocks(pa, pb *syz.Profile) int {
	if len(o.Results) == 0 {
		return 0
	}
	seen := make(map[int32]bool)
	for _, res := range o.Results {
		for id, c := range res.Covered {
			if c && !pa.Covered[id] && !pb.Covered[id] {
				seen[int32(id)] = true
			}
		}
	}
	return len(seen)
}

// Explorer runs per-CTI interleaving exploration on one kernel.
type Explorer struct {
	K       *kernel.Kernel
	Builder *ctgraph.Builder
	Opts    Options
	// Exec runs the selected schedules; nil selects
	// explore.DefaultExecutor over the explorer's kernel.
	Exec explore.Executor
	// Hooks observes the pipeline stages (see explore.Hooks); nil
	// disables observation. Hooks fire from the sequential walk and the
	// in-order execution fold, so concurrent Plan calls must not share a
	// hooked explorer.
	Hooks *explore.Hooks
	// Resilience, when non-nil, runs Execute through the fault-injection
	// retry/quarantine layer and degrades build-stage panics during
	// planning to skipped candidates. Nil keeps the legacy fail-fast
	// pipeline bit-identically. Its quarantine maps are mutated only from
	// Execute's sequential fold, so concurrent Plan calls may share it,
	// but concurrent Execute calls must not.
	Resilience *explore.Resilience
}

// NewExplorer creates an explorer with the given options.
func NewExplorer(k *kernel.Kernel, b *ctgraph.Builder, opts Options) *Explorer {
	return &Explorer{K: k, Builder: b, Opts: opts}
}

// executor resolves the configured executor, defaulting to the
// interpreter over the explorer's kernel.
func (e *Explorer) executor() explore.Executor {
	if e.Exec != nil {
		return e.Exec
	}
	return explore.DefaultExecutor(e.K)
}

// Plan is the outcome of one CTI's proposal/selection walk before any
// dynamic execution: the schedules selected for execution, in selection
// order, plus the walk's ledger accounting. Selection never depends on
// execution results, so a plan can be executed later — and concurrently
// with other plans — without changing what was selected.
type Plan struct {
	CTI        ski.CTI
	Scheds     []ski.Schedule
	Proposed   int
	Inferences int
}

// finishPlan snapshots the walk's selections and ledger into a Plan.
func finishPlan(cti ski.CTI, selected []explore.Candidate, led *explore.Ledger) *Plan {
	p := &Plan{CTI: cti, Proposed: led.Proposed(), Inferences: led.Inferences()}
	for _, c := range selected {
		p.Scheds = append(p.Scheds, c.Sched)
	}
	return p
}

// PlanPCT selects the first ExecBudget unique PCT-sampled schedules of the
// CTI — the SKI baseline, where every proposal is executed. The walk has
// no GraphBuild/Score/Select stage at all: every proposal is accepted and
// no CT graph is ever built.
func (e *Explorer) PlanPCT(cti ski.CTI, pa, pb *syz.Profile, seed uint64) *Plan {
	if e.Opts.ExecBudget <= 0 {
		return &Plan{CTI: cti} // §5.3.1 budgets are hard limits: nothing to select
	}
	led := explore.NewLedger(explore.CostModel{})
	w := &explore.Walk{
		Source: explore.SampleUnique(cti, ski.NewSampler(pa, pb, seed), 50),
		Budget: explore.Budget{ExecBudget: e.Opts.ExecBudget},
		Batch:  e.Opts.batch(), Workers: e.Opts.workers(),
		Ledger: led, Hooks: e.Hooks, Resilience: e.Resilience,
	}
	return finishPlan(cti, w.Run(), led)
}

// PlanMLPCT runs the model-guided selection walk: PCT proposals are scored
// by the predictor and filtered by the strategy. The walk stops when the
// execution budget is exhausted, the inference cap is hit, or the sampler
// runs dry (§5.3.2 observes S2 often exhausts the inference cap before the
// execution budget).
//
// Candidates are proposed Opts.Batch at a time so their CT graphs can be
// built and scored on Opts.Parallel workers, but the strategy walks them
// strictly in proposal order and the ledger charges only the walked
// prefix — a candidate past the budget/cap stopping point is discarded
// unwalked, exactly as if it had never been proposed. The plan is
// therefore identical for every batch size and worker count. The strategy
// is mutated (its memory spans CTIs in campaigns), so calls sharing a
// strategy must stay sequential.
func (e *Explorer) PlanMLPCT(cti ski.CTI, pa, pb *syz.Profile, seed uint64,
	pred predictor.Predictor, strat strategy.Strategy) *Plan {

	if e.Opts.ExecBudget <= 0 || e.Opts.InferenceCap <= 0 {
		return &Plan{CTI: cti} // §5.3.1 budgets are hard limits: nothing to select
	}
	// The schedule-independent graph skeleton — and, for predictors that
	// support it, the per-CTI inference context — is built once; every
	// candidate schedule completes it. WithSchedule and ScoreBatch outputs
	// are bit-identical to the per-candidate Build/Score they replace.
	base := e.Builder.BuildBase(cti, pa, pb)
	predictor.BeginCTI(pred, base)
	defer predictor.EndCTI(pred)
	th := pred.Threshold()
	led := explore.NewLedger(explore.CostModel{})
	w := &explore.Walk{
		Source: explore.SampleUnique(cti, ski.NewSampler(pa, pb, seed), 50),
		Build:  func(c explore.Candidate) *ctgraph.Graph { return base.WithSchedule(c.Sched) },
		Score:  pred,
		Accept: func(c explore.Candidate, g *ctgraph.Graph, scores []float64) bool {
			return strategy.Select(strat, g, strategy.FromScores(scores, th))
		},
		Budget: explore.Budget{ExecBudget: e.Opts.ExecBudget, InferenceCap: e.Opts.InferenceCap},
		Batch:  e.Opts.batch(), Workers: e.Opts.workers(),
		Ledger: led, Hooks: e.Hooks, Resilience: e.Resilience,
	}
	return finishPlan(cti, w.Run(), led)
}

// Execute runs every planned schedule on Opts.Parallel workers and folds
// the results into an Outcome in selection order, so the outcome is
// identical for any worker count. Without a Resilience layer a failed
// execution wraps ErrExec; with one, failed candidates are skipped (and
// counted) instead of aborting the outcome.
func (e *Explorer) Execute(p *Plan) (*Outcome, error) {
	led := explore.NewLedger(explore.CostModel{})
	results, err := explore.ExecutePlan(e.executor(), p.CTI, p.Scheds, e.Opts.workers(), led, e.Hooks, e.Resilience)
	if err != nil {
		return nil, fmt.Errorf("mlpct: %w", err)
	}
	out := &Outcome{Proposed: p.Proposed, Inferences: p.Inferences}
	for i, res := range results {
		if res == nil {
			continue // skipped by the resilience layer
		}
		out.addResult(res, p.Scheds[i])
	}
	out.Retries = led.Retries()
	out.Skipped = led.Skipped()
	return out, nil
}

// ExplorePCT is the SKI baseline: execute the first ExecBudget unique
// PCT-sampled schedules of the CTI.
func (e *Explorer) ExplorePCT(cti ski.CTI, pa, pb *syz.Profile, seed uint64) (*Outcome, error) {
	return e.Execute(e.PlanPCT(cti, pa, pb, seed))
}

// ExploreMLPCT is the model-guided variant: PCT proposals are scored by
// the predictor and filtered by the strategy; only selected candidates are
// executed. See PlanMLPCT for the walk semantics.
func (e *Explorer) ExploreMLPCT(cti ski.CTI, pa, pb *syz.Profile, seed uint64,
	pred predictor.Predictor, strat strategy.Strategy) (*Outcome, error) {
	return e.Execute(e.PlanMLPCT(cti, pa, pb, seed, pred, strat))
}
