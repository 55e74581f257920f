package explore

import (
	"errors"
	"fmt"
)

// Sentinel errors for callers to errors.Is against. Consumers (mlpct,
// campaign, razzer, snowboard) wrap these with %w so an error's origin
// stays testable across the package boundary.
var (
	// ErrInvalidCost reports a cost model with a negative or NaN
	// component, which would silently run the simulated clock backwards.
	ErrInvalidCost = errors.New("explore: invalid cost model")
	// ErrInvalidConfig reports a pipeline or campaign configuration that
	// cannot run (e.g. a non-positive CTI count).
	ErrInvalidConfig = errors.New("explore: invalid configuration")
	// ErrExec reports a dynamic execution failure inside the Execute
	// stage; the underlying ski error is wrapped alongside it.
	ErrExec = errors.New("explore: dynamic execution failed")
	// ErrBuild reports a GraphBuild stage failure (a panicking builder)
	// that resilience degraded to a skipped candidate.
	ErrBuild = errors.New("explore: graph build failed")
)

// CostModel converts exploration events into simulated wall-clock seconds
// (§5.2.2: 2.8 s per dynamic execution, 0.015 s per model inference;
// §5.3.2: model start-up cost in hours).
type CostModel struct {
	ExecSeconds  float64 // one dynamic execution (paper: 2.8)
	InferSeconds float64 // one model inference (paper: 0.015)
	StartupHours float64 // data collection + training charged up front
}

// Validate rejects cost models whose components are negative or NaN; both
// would corrupt the monotonic simulated clock.
func (c CostModel) Validate() error {
	if !(c.ExecSeconds >= 0) || !(c.InferSeconds >= 0) || !(c.StartupHours >= 0) {
		return fmt.Errorf("%w: ExecSeconds=%v InferSeconds=%v StartupHours=%v (all must be non-negative)",
			ErrInvalidCost, c.ExecSeconds, c.InferSeconds, c.StartupHours)
	}
	return nil
}

// PaperCosts returns the §5.2.2 constants with no start-up charge.
func PaperCosts() CostModel {
	return CostModel{ExecSeconds: 2.8, InferSeconds: 0.015}
}

// WithStartup returns the cost model with a training start-up charge, e.g.
// 240 h for PIC-5 (§5.3.2) or the smaller fine-tuning charges of Table 2.
func (c CostModel) WithStartup(hours float64) CostModel {
	c.StartupHours = hours
	return c
}

// Ledger is the single accounting authority of an exploration: it owns the
// proposal/inference/execution counters and the simulated wall clock. Every
// pipeline consumer charges events here instead of keeping private
// counters, so sharding and observability see one consistent view.
//
// A Ledger is not safe for concurrent use; pipelines charge it only from
// their canonical sequential points (the selection walk and the in-order
// result fold), which is also what keeps charge order — and therefore the
// floating-point clock — identical at any worker count.
type Ledger struct {
	cost       CostModel
	proposed   int
	inferences int
	execs      int
	seconds    float64

	// Resilience counters (package faults): retried executions, candidates
	// skipped after exhausting retries, and CTIs quarantined as repeat
	// offenders. All zero when the fault/resilience layer is disabled.
	retries     int
	skipped     int
	quarantined int
}

// NewLedger opens an empty ledger charging with the given cost model. A
// zero CostModel yields a pure event counter (the per-CTI walks use this;
// campaigns settle the clock on their own ledger).
func NewLedger(cost CostModel) *Ledger { return &Ledger{cost: cost} }

// Cost returns the ledger's cost model.
func (l *Ledger) Cost() CostModel { return l.cost }

// Propose records n candidate proposals (no clock charge: proposing is
// free, only inference and execution cost simulated time).
func (l *Ledger) Propose(n int) { l.proposed += n }

// Charge records execs dynamic executions and inferences model inferences
// and advances the simulated clock by their combined cost. The two
// components are charged as one floating-point expression so a per-round
// settlement is bit-identical to the historical per-CTI clock arithmetic.
func (l *Ledger) Charge(execs, inferences int) {
	l.execs += execs
	l.inferences += inferences
	l.seconds += float64(execs)*l.cost.ExecSeconds + float64(inferences)*l.cost.InferSeconds
}

// ChargeStartup charges the cost model's one-time start-up hours.
func (l *Ledger) ChargeStartup() { l.seconds += l.cost.StartupHours * 3600 }

// ChargeSeconds advances the simulated clock by s seconds without touching
// the event counters — retry backoff and fault penalties charge simulated
// time that no execution or inference accounts for.
func (l *Ledger) ChargeSeconds(s float64) { l.seconds += s }

// RecordRetries records n retried executions.
func (l *Ledger) RecordRetries(n int) { l.retries += n }

// RecordSkips records n candidates skipped by the resilience policy.
func (l *Ledger) RecordSkips(n int) { l.skipped += n }

// RecordQuarantines records n CTIs quarantined as repeat offenders.
func (l *Ledger) RecordQuarantines(n int) { l.quarantined += n }

// Retries returns the cumulative retried executions.
func (l *Ledger) Retries() int { return l.retries }

// Skipped returns the cumulative candidates skipped by resilience.
func (l *Ledger) Skipped() int { return l.skipped }

// Quarantined returns the cumulative CTIs quarantined.
func (l *Ledger) Quarantined() int { return l.quarantined }

// Proposed returns the cumulative candidate proposals.
func (l *Ledger) Proposed() int { return l.proposed }

// Inferences returns the cumulative model inferences.
func (l *Ledger) Inferences() int { return l.inferences }

// Execs returns the cumulative dynamic executions.
func (l *Ledger) Execs() int { return l.execs }

// Seconds returns the simulated clock in seconds.
func (l *Ledger) Seconds() float64 { return l.seconds }

// Hours returns the simulated clock in hours.
func (l *Ledger) Hours() float64 { return l.seconds / 3600 }

// Snapshot is a comparable copy of every ledger counter, for equality
// assertions across worker counts and fault configurations.
type Snapshot struct {
	Proposed    int
	Inferences  int
	Execs       int
	Retries     int
	Skipped     int
	Quarantined int
	Seconds     float64
}

// Snapshot returns the ledger's current counters.
func (l *Ledger) Snapshot() Snapshot {
	return Snapshot{
		Proposed:    l.proposed,
		Inferences:  l.inferences,
		Execs:       l.execs,
		Retries:     l.retries,
		Skipped:     l.skipped,
		Quarantined: l.quarantined,
		Seconds:     l.seconds,
	}
}
