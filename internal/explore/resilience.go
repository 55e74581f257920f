package explore

import (
	"snowcat/internal/ctgraph"
	"snowcat/internal/faults"
	"snowcat/internal/ski"
)

// Resilience binds a fault injector to a resilience policy and carries the
// quarantine state of one run. A nil *Resilience selects the legacy
// abort-on-error pipeline, bit-identical to the pre-fault code.
//
// The concurrency contract splits the type in two halves. Execute reads
// only immutable configuration, so pool workers may call it concurrently;
// Quarantined, NoteFailure and Fold mutate the quarantine maps and must be
// called only from a pipeline's canonical sequential fold — the same rule
// the Ledger already follows. Quarantine is keyed by CTI ID, so a
// Resilience must not outlive the ID space it watches: use a fresh one per
// campaign run.
type Resilience struct {
	Inj    *faults.Injector
	Policy faults.Policy

	failed      map[int64]int  // given-up candidates per CTI ID
	quarantined map[int64]bool // CTIs past Policy.QuarantineAfter
}

// NewResilience validates the policy and returns a resilience layer with
// empty quarantine state. inj may be nil: retries, step budgets and
// quarantine still apply to genuine execution failures.
func NewResilience(inj *faults.Injector, p faults.Policy) (*Resilience, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Resilience{
		Inj:         inj,
		Policy:      p,
		failed:      make(map[int64]int),
		quarantined: make(map[int64]bool),
	}, nil
}

// Execute runs one candidate through the fault injector and retry loop on
// the given executor, bounding each real execution by the policy's step
// budget. Fault decisions are pure per-attempt hashes and corruption/
// validation apply to the returned result, so a chaos schedule does not
// depend on the executor wrapped. It mutates nothing shared and is safe to
// call from pool workers.
func (r *Resilience) Execute(ex Executor, cti ski.CTI, sched ski.Schedule) faults.Report {
	exec := func(cti ski.CTI, sched ski.Schedule) (*ski.Result, error) {
		return ex.ExecuteSteps(cti, sched, r.Policy.StepBudget)
	}
	return faults.Run(ex.Kernel(), r.Inj, r.Policy, exec, cti, sched)
}

// Quarantined reports whether the CTI is on the quarantine list.
// Sequential fold only.
func (r *Resilience) Quarantined(ctiID int64) bool { return r.quarantined[ctiID] }

// NoteFailure records one given-up candidate of the CTI and reports
// whether this crossed the quarantine threshold right now (so the caller
// fires the quarantine hook exactly once). Sequential fold only.
func (r *Resilience) NoteFailure(ctiID int64) bool {
	if r.Policy.QuarantineAfter <= 0 || r.quarantined[ctiID] {
		return false
	}
	r.failed[ctiID]++
	if r.failed[ctiID] < r.Policy.QuarantineAfter {
		return false
	}
	r.quarantined[ctiID] = true
	return true
}

// Fold settles one candidate's execution report into the ledger in
// canonical order: quarantined CTIs are skipped uncharged, retries and
// fault penalties are charged to the simulated clock, and a candidate
// whose every attempt failed is skipped-and-logged, feeding the CTI's
// quarantine count. It returns the successful result, or nil when the
// candidate was skipped. Sequential fold only.
func (r *Resilience) Fold(c Candidate, rep faults.Report, led *Ledger, hooks *Hooks) *ski.Result {
	if r.Quarantined(c.CTI.ID) {
		led.RecordSkips(1)
		hooks.CandidateSkippedHook(c, faults.ErrQuarantined)
		return nil
	}
	if rep.Attempts > 1 {
		led.RecordRetries(rep.Attempts - 1)
		hooks.ExecRetriedHook(c, rep.Attempts-1)
	}
	led.Charge(rep.Attempts, 0)
	if s := rep.BackoffSeconds + rep.PenaltySeconds; s != 0 {
		led.ChargeSeconds(s)
	}
	if rep.Err != nil {
		led.RecordSkips(1)
		hooks.CandidateSkippedHook(c, rep.Err)
		if r.NoteFailure(c.CTI.ID) {
			led.RecordQuarantines(1)
			hooks.CTIQuarantinedHook(c.CTI)
		}
		return nil
	}
	return rep.Res
}

// safeBuild degrades a panicking GraphBuild stage to a nil graph, so one
// corrupted candidate skips instead of bringing down the whole walk.
func safeBuild(build func(Candidate) *ctgraph.Graph, c Candidate) (g *ctgraph.Graph) {
	defer func() {
		if recover() != nil {
			g = nil
		}
	}()
	return build(c)
}
