package ski

import (
	"fmt"

	"snowcat/internal/kernel"
	"snowcat/internal/sim"
)

// HookAction is the verdict a SchedulePoint callback returns: keep running
// the current thread, or preempt it at this block boundary.
type HookAction uint8

const (
	// HookContinue lets the current thread keep running; the pre-planned
	// hints stay in sole control of the interleaving.
	HookContinue HookAction = iota
	// HookPreempt switches to the other thread at this schedule point (a
	// no-op when the other thread has finished). A hook preemption counts
	// as a Switch but not a HintFired, and the event that triggered it is
	// not also matched against the armed hint — a single schedule point
	// yields at most one switch.
	HookPreempt
)

// ExecHooks are scheduling hook points inside the executor, the eBPF-style
// mid-run steering seam (DESIGN.md §14): instead of only pre-planning
// hints, a caller can observe the interleaving as it unfolds and preempt
// at block boundaries. Amplify's mid-run perturbation mode is the first
// consumer.
//
// Hooks observe, they do not mutate: callbacks run on the executor
// goroutine between steps, so they must not retain ev references or call
// back into the executor.
type ExecHooks struct {
	// SchedulePoint fires every time the running thread enters a basic
	// block — the uniprocessor scheduler's natural preemption points.
	// thread is the running thread (0 or 1), ref the first instruction of
	// the entered block, and step the global interleaving position. A nil
	// SchedulePoint is equivalent to returning HookContinue everywhere.
	SchedulePoint func(thread int32, ref sim.InstrRef, step int) HookAction
}

// ExecuteHooked is ExecuteSteps with in-run schedule-point hooks. With nil
// hooks (or a nil SchedulePoint) the pre-planned hints alone steer the run.
func ExecuteHooked(k *kernel.Kernel, cti CTI, sched Schedule, stepLimit int, hooks *ExecHooks) (*Result, error) {
	if err := sched.Validate(); err != nil {
		return nil, fmt.Errorf("ski: executing %s: %w", cti, err)
	}
	m := sim.NewMachine(k)
	m.Limit = stepLimit
	return runSchedule(k, cti, sched, [2]*sim.Thread{
		sim.NewThread(m, 0, cti.A.Calls),
		sim.NewThread(m, 1, cti.B.Calls),
	}, hooks)
}
