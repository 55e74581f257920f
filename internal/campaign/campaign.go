// Package campaign runs end-to-end testing campaigns: a stream of CTIs is
// explored — by plain PCT or model-guided MLPCT — while cumulative
// data-race coverage is tracked against a simulated wall clock charged
// with the paper's cost constants (§5.2.2: 2.8 s per dynamic execution,
// 0.015 s per model inference; §5.3.2: model start-up cost in hours).
// This reproduces the Figure 5 family: coverage-versus-hours histories for
// different explorers, kernels, and model variants.
package campaign

import (
	"errors"

	"snowcat/internal/cfg"
	"snowcat/internal/ctgraph"
	"snowcat/internal/explore"
	"snowcat/internal/kernel"
	"snowcat/internal/mlpct"
	"snowcat/internal/predictor"
	"snowcat/internal/strategy"
)

// ErrInvalidCost reports a cost model with a negative component, which
// would silently run the simulated clock backwards. It is the explore
// package's sentinel: cost modelling lives in the shared ledger now.
var ErrInvalidCost = explore.ErrInvalidCost

// ErrInvalidConfig reports a campaign configuration that cannot run.
var ErrInvalidConfig = errors.New("campaign: invalid configuration")

// CostModel converts campaign events into simulated wall-clock seconds.
// It is the explore.Ledger's cost model; the alias keeps existing
// campaign-facing call sites working.
type CostModel = explore.CostModel

// PaperCosts returns the §5.2.2 constants with no start-up charge.
func PaperCosts() CostModel { return explore.PaperCosts() }

// Point is one sample of a campaign history.
type Point struct {
	Hours  float64 // simulated hours including start-up
	Races  int     // cumulative unique potential data races
	Blocks int     // cumulative schedule-dependent block coverage
}

// History is the outcome of one campaign run.
type History struct {
	Name        string
	Points      []Point
	TotalExecs  int
	TotalInfers int
	CTIs        int
	BugsFound   map[int32]bool // planted bugs triggered
	FinalRaces  int
	FinalBlocks int
	// Resilience counters; all zero when Config.Resilience is nil.
	Retries     int // executions retried after injected/real failures
	Skipped     int // candidates given up on (skip-and-log degradation)
	Quarantined int // CTIs quarantined as repeat offenders
}

// HoursToReach returns the first simulated time at which the history
// reaches the given race count, or -1 if it never does. This is the §5.3.2
// comparison ("SKI took 304 hours to reach 3,500 unique races; S1 took
// 155").
func (h *History) HoursToReach(races int) float64 {
	for _, p := range h.Points {
		if p.Races >= races {
			return p.Hours
		}
	}
	return -1
}

// RacesAtHour returns the cumulative races at the given simulated time
// (the largest sample not after it), 0 before the first sample.
func (h *History) RacesAtHour(hours float64) int {
	races := 0
	for _, p := range h.Points {
		if p.Hours > hours {
			break
		}
		races = p.Races
	}
	return races
}

// Config describes one campaign.
type Config struct {
	Name    string
	Seed    uint64
	NumCTIs int
	Opts    mlpct.Options
	Cost    CostModel
	// Pred non-nil selects MLPCT with the given predictor and strategy;
	// nil runs plain PCT.
	Pred  predictor.Predictor
	Strat strategy.Strategy
	// Exec runs the campaign's executions; nil selects
	// explore.DefaultExecutor over the runner's kernel.
	Exec explore.Executor
	// Parallel bounds the campaign worker pool (STI profiling, candidate
	// scoring, and dynamic executions); <= 0 selects GOMAXPROCS. The
	// history is identical for every worker count — see DESIGN.md,
	// "Concurrency model".
	Parallel int
	// Hooks observes the pipeline stages (see explore.Hooks). They fire
	// from the sequential phases only — the MLPCT selection walks and the
	// canonical result fold — so callback order is deterministic at any
	// worker count. PCT plan construction shards across workers and fires
	// no per-candidate hooks.
	Hooks *explore.Hooks
	// Resilience, when non-nil, runs every dynamic execution through the
	// fault-injection retry/quarantine layer and degrades failures to
	// skipped candidates instead of aborting the campaign. Nil keeps the
	// legacy fail-fast pipeline bit-identically. Quarantine is keyed by
	// this run's CTI IDs, so pass a fresh Resilience per Run.
	Resilience *explore.Resilience
}

// Runner executes campaigns over one kernel. The CTI stream is derived
// from the seed, so two campaigns with the same seed see the same stream —
// the paper's "same CTI stream" comparisons (§5.4).
type Runner struct {
	K       *kernel.Kernel
	Builder *ctgraph.Builder
}

// NewRunner prepares a campaign runner for kernel k; the CTI stream is
// seeded separately per Run.
func NewRunner(k *kernel.Kernel) *Runner {
	return &Runner{K: k, Builder: ctgraph.NewBuilder(k, cfg.Build(k))}
}

// Run executes one campaign and returns its history.
//
// The run is split into phases so the expensive work shards across
// c.Parallel workers while the history stays identical — draw for draw —
// to the canonical sequential walk:
//
//  0. the CTI stream (STI pairs and per-CTI exploration seeds) is drawn
//     sequentially, in exactly the order the serial loop drew it;
//  1. STI profiling fans out per CTI;
//  2. selection plans are built — in parallel for PCT (CTIs are
//     independent), in canonical CTI order for MLPCT (the strategy's
//     memory spans CTIs, §3.3), with candidate scoring fanned out inside
//     each CTI;
//  3. every planned (CTI, schedule) execution — and its race detection —
//     fans out across CTIs in one flat pool;
//  4. results fold sequentially in canonical order into the cumulative
//     race/block/bug sets and the simulated clock.
func (r *Runner) Run(c Config) (*History, error) {
	// Phase 0: canonical stream.
	jobs, err := r.Stream(c)
	if err != nil {
		return nil, err
	}
	exp := r.Explorer(c)

	// Phase 1: STI profiling.
	profs, err := r.ProfileAll(jobs, c.Parallel)
	if err != nil {
		return nil, err
	}

	// Phase 2: selection plans.
	plans, err := r.PlanAll(c, exp, jobs, profs)
	if err != nil {
		return nil, err
	}

	// Phase 3: dynamic executions, flattened across CTIs.
	execs, err := r.ExecuteAll(c, plans)
	if err != nil {
		return nil, err
	}

	// Phase 4: canonical fold. The campaign ledger is the single cost
	// authority: start-up is charged up front and each CTI settles its
	// executions and inferences as one charge, reproducing the historical
	// clock arithmetic bit for bit.
	fold := NewFold(c)
	for i, p := range plans {
		fold.SettleCTI(c, p, profs[i], execs[i])
	}
	return fold.Finish(), nil
}

// FilterModel is the §A.6 analytic model of a rejection filter: candidates
// are fruitful with base rate Rho; the filter accepts fruitful candidates
// with probability Recall (TPR) and fruitless ones with probability FPR.
type FilterModel struct {
	Rho    float64
	Recall float64
	FPR    float64
}

// AcceptRate is the probability a random candidate is accepted.
func (f FilterModel) AcceptRate() float64 {
	return f.Rho*f.Recall + (1-f.Rho)*f.FPR
}

// PrecisionAmongAccepted is the fraction of accepted candidates that are
// fruitful.
func (f FilterModel) PrecisionAmongAccepted() float64 {
	a := f.AcceptRate()
	if a == 0 {
		return 0
	}
	return f.Rho * f.Recall / a
}

// ExecsPerFruitful is the expected number of dynamic executions until one
// fruitful test is executed (∞ degenerates to a large number when the
// filter accepts no fruitful tests).
func (f FilterModel) ExecsPerFruitful() float64 {
	p := f.PrecisionAmongAccepted()
	if p == 0 {
		return 1e18
	}
	return 1 / p
}

// CandidatesPerExec is the expected number of candidates scored per
// accepted (executed) test.
func (f FilterModel) CandidatesPerExec() float64 {
	a := f.AcceptRate()
	if a == 0 {
		return 1e18
	}
	return 1 / a
}

// SecondsPerFruitful combines the cost model with the filter: expected
// simulated seconds of inference plus execution per fruitful test found.
// A no-filter baseline is FilterModel{Rho: rho, Recall: 1, FPR: 1} with
// InferSeconds zeroed by the caller.
func (f FilterModel) SecondsPerFruitful(cost CostModel) float64 {
	return f.ExecsPerFruitful() * (cost.ExecSeconds + f.CandidatesPerExec()*cost.InferSeconds)
}
