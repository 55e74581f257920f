package explore

import (
	"snowcat/internal/kernel"
	"snowcat/internal/ski"
)

// Executor is the pipeline's execution backend: it runs one (CTI, schedule)
// pair and reports everything the fold needs — coverage, the access trace
// race detection reads, bug hits — as a *ski.Result. Implementations are
// bound to one kernel at construction and must be safe for concurrent use
// from pool workers. The interpreter (DefaultExecutor) is the one backend;
// the seam exists so that wrappers around it, such as fault injection and
// timing probes, see every execution, and `make lint` keeps the pipeline
// consumers from calling ski.Execute* past it.
type Executor interface {
	// Kernel returns the kernel the executor is bound to (the fault layer
	// validates results against it).
	Kernel() *kernel.Kernel
	// Execute runs one schedule to completion.
	Execute(cti ski.CTI, sched ski.Schedule) (*ski.Result, error)
	// ExecuteSteps is Execute with a per-execution step budget;
	// stepLimit <= 0 keeps the global bound.
	ExecuteSteps(cti ski.CTI, sched ski.Schedule, stepLimit int) (*ski.Result, error)
}

// HookedExecutor is the optional executor extension for in-run
// schedule-point hooks (ski.ExecHooks). DefaultExecutor implements it; a
// wrapper that cannot forward callbacks need not, so consumers type-assert
// and fall back to pre-planned schedules when the assertion fails
// (amplify's mid-run mode does exactly this).
type HookedExecutor interface {
	Executor
	// ExecuteHooked is ExecuteSteps with hooks evaluated at block
	// boundaries; nil hooks is bit-identical to ExecuteSteps.
	ExecuteHooked(cti ski.CTI, sched ski.Schedule, stepLimit int, hooks *ski.ExecHooks) (*ski.Result, error)
}

// DefaultExecutor returns the interpreter backend bound to k — what every
// consumer uses when no executor is configured.
func DefaultExecutor(k *kernel.Kernel) Executor {
	return interpExecutor{k: k}
}

// interpExecutor is the interpreter backend: ski.Execute.
type interpExecutor struct {
	k *kernel.Kernel
}

func (e interpExecutor) Kernel() *kernel.Kernel { return e.k }

func (e interpExecutor) Execute(cti ski.CTI, sched ski.Schedule) (*ski.Result, error) {
	return ski.Execute(e.k, cti, sched)
}

func (e interpExecutor) ExecuteSteps(cti ski.CTI, sched ski.Schedule, stepLimit int) (*ski.Result, error) {
	return ski.ExecuteSteps(e.k, cti, sched, stepLimit)
}

func (e interpExecutor) ExecuteHooked(cti ski.CTI, sched ski.Schedule, stepLimit int, hooks *ski.ExecHooks) (*ski.Result, error) {
	return ski.ExecuteHooked(e.k, cti, sched, stepLimit, hooks)
}
