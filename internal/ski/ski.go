// Package ski executes concurrent tests under controlled interleavings.
//
// It reproduces the executor role of SKI (§3.1, §4): a uniprocessor
// scheduler runs the two kernel threads of a concurrent test one at a time
// and enforces *scheduling hints* — "switch to the other thread after
// executing instruction X". Hints follow SKI's relaxed semantics: a hint
// whose switch-point instruction is never executed is skipped, and a
// blocked or finished thread forces an extra switch (SKI's deadlock
// fallback). Besides the executor, the package provides the PCT-style
// schedule sampler used as the interleaving proposal source by both the
// baseline (PCT) and the model-guided (MLPCT) explorers.
package ski

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"snowcat/internal/kernel"
	"snowcat/internal/sim"
	"snowcat/internal/syz"
	"snowcat/internal/xrand"
)

// ErrBadSchedule reports a schedule that no executor run could honour —
// a hint or injection naming a thread other than 0 or 1. Out-of-range
// instruction refs and IRQ numbers are *not* errors: SKI's relaxed
// semantics skip hints that never fire.
var ErrBadSchedule = errors.New("ski: invalid schedule")

// InstrRef aliases the simulator's instruction reference so pipeline
// consumers can name schedule switch points and race sites through the
// executor layer alone, without importing internal/sim (the import-boundary
// rule `make lint` enforces).
type InstrRef = sim.InstrRef

// CTI is a concurrent test input: a pair of sequential test inputs that
// will run on two kernel threads.
type CTI struct {
	ID   int64
	A, B *syz.STI
}

func (c CTI) String() string { return fmt.Sprintf("cti%d(%s || %s)", c.ID, c.A, c.B) }

// Hint is one scheduling hint: after thread Thread executes the (first
// dynamic occurrence of the) instruction Ref, the executor switches to the
// other thread.
type Hint struct {
	Thread int32 // 0 = thread A, 1 = thread B
	Ref    sim.InstrRef
}

// IRQHint asks the executor to inject interrupt handler IRQ onto thread
// Thread right after it executes (the first dynamic occurrence of) Ref —
// the §6 interrupt-coverage extension. Unfired injections are skipped,
// like scheduling hints.
type IRQHint struct {
	Thread int32
	Ref    sim.InstrRef
	IRQ    int32
}

// Schedule is a target interleaving: an ordered list of scheduling hints,
// plus optional interrupt injections. The paper configures two hints per
// concurrent test (§3.1); the executor accepts any number.
type Schedule struct {
	Hints []Hint
	IRQs  []IRQHint
}

// decLen returns the decimal rendering length of x, sign included.
func decLen(x int32) int {
	u, n := uint64(x), 1
	if x < 0 {
		u = uint64(-int64(x))
		n = 2
	}
	for u >= 10 {
		u /= 10
		n++
	}
	return n
}

// Key returns a comparable identity for deduplicating schedules. Every
// proposal a sampler draws is keyed, so the key is sized exactly from its
// operands and built in one preallocated pass — a single allocation at any
// hint count, no growth copies; the byte format is unchanged ("T@bB:I;"
// per hint, "irqQ:T@bB:I;" per injection, matching the historical Sprintf
// output).
func (s Schedule) Key() string {
	size := 0
	for _, h := range s.Hints {
		// T '@' 'b' B ':' I ';'
		size += decLen(h.Thread) + decLen(h.Ref.Block) + decLen(h.Ref.Idx) + 4
	}
	for _, q := range s.IRQs {
		// "irq" Q ':' T '@' 'b' B ':' I ';'
		size += decLen(q.IRQ) + decLen(q.Thread) + decLen(q.Ref.Block) + decLen(q.Ref.Idx) + 8
	}
	var b strings.Builder
	b.Grow(size)
	var scratch [20]byte
	num := func(x int32) {
		b.Write(strconv.AppendInt(scratch[:0], int64(x), 10))
	}
	ref := func(r sim.InstrRef) { // r in its String format, "bB:I"
		b.WriteByte('b')
		num(r.Block)
		b.WriteByte(':')
		num(r.Idx)
	}
	for _, h := range s.Hints {
		num(h.Thread)
		b.WriteByte('@')
		ref(h.Ref)
		b.WriteByte(';')
	}
	for _, q := range s.IRQs {
		b.WriteString("irq")
		num(q.IRQ)
		b.WriteByte(':')
		num(q.Thread)
		b.WriteByte('@')
		ref(q.Ref)
		b.WriteByte(';')
	}
	return b.String()
}

// Validate rejects schedules whose hints or injections name a thread the
// two-thread executor does not have; everything else follows the relaxed
// skip semantics and needs no validation.
func (s Schedule) Validate() error {
	for i, h := range s.Hints {
		if h.Thread != 0 && h.Thread != 1 {
			return fmt.Errorf("%w: hint %d names thread %d", ErrBadSchedule, i, h.Thread)
		}
	}
	for i, q := range s.IRQs {
		if q.Thread != 0 && q.Thread != 1 {
			return fmt.Errorf("%w: IRQ injection %d names thread %d", ErrBadSchedule, i, q.Thread)
		}
	}
	return nil
}

// Result is everything observed during one concurrent execution.
type Result struct {
	// Covered is the union block coverage of the concurrent execution.
	Covered []bool
	// CoveredBy is the per-thread block coverage.
	CoveredBy [2][]bool
	// Accesses holds each thread's memory accesses; Step fields carry the
	// *global* interleaving position so cross-thread order is recoverable.
	Accesses [2][]syz.Access
	// BugsHit lists planted bug IDs triggered during the execution.
	BugsHit []int32
	// HintsFired counts scheduling hints that actually caused a switch;
	// Switches counts all thread switches including fallbacks.
	HintsFired int
	Switches   int
	Steps      int
}

// CoveredCount returns the number of blocks in the union coverage.
func (r *Result) CoveredCount() int {
	n := 0
	for _, c := range r.Covered {
		if c {
			n++
		}
	}
	return n
}

// HitBug reports whether the given planted bug fired.
func (r *Result) HitBug(id int32) bool {
	for _, b := range r.BugsHit {
		if b == id {
			return true
		}
	}
	return false
}

// Execute runs the concurrent test (cti, sched) on a fresh machine and
// returns the observed result. Execution is fully deterministic.
//
// Scheduling model: thread A starts. The earliest unconsumed hint is
// "armed" only when it names the currently running thread; when the
// running thread executes the armed hint's instruction, the hint fires and
// control switches. A thread that finishes or blocks forces a switch
// regardless of hints; a hint naming a finished thread is dropped (SKI's
// skip semantics).
func Execute(k *kernel.Kernel, cti CTI, sched Schedule) (*Result, error) {
	return ExecuteSteps(k, cti, sched, 0)
}

// ExecuteSteps is Execute with a per-execution step budget: stepLimit <= 0
// (or anything past sim.MaxSteps) keeps the global sim.MaxSteps bound.
// Resilience policies use the budget to kill runaway executions early. The
// schedule is validated up front so a corrupted schedule degrades to an
// ErrBadSchedule-wrapped error instead of an index panic on a pool worker.
func ExecuteSteps(k *kernel.Kernel, cti CTI, sched Schedule, stepLimit int) (*Result, error) {
	return ExecuteHooked(k, cti, sched, stepLimit, nil)
}

// accessLogs is one execution's per-thread access recording. Executions
// take their logs from logPool, so after warm-up recording appends into
// retained capacity; each Result gets exact-length copies and never holds
// a pooled buffer.
type accessLogs [2][]syz.Access

var logPool = sync.Pool{New: func() any { return new(accessLogs) }}

// maxPooledAccesses bounds the capacity a log may keep in the pool, so one
// runaway execution does not pin its log for the life of the process.
const maxPooledAccesses = 1 << 16

func (l *accessLogs) release() {
	for i := range l {
		if cap(l[i]) > maxPooledAccesses {
			l[i] = nil
		}
		l[i] = l[i][:0]
	}
	logPool.Put(l)
}

// runSchedule is the executor core: the SKI uniprocessor scheduling loop
// over two pre-built threads. hooks may be nil (the pre-planned-hints-only
// path, bit-identical to the pre-hook executor).
func runSchedule(k *kernel.Kernel, cti CTI, sched Schedule, threads [2]*sim.Thread, hooks *ExecHooks) (*Result, error) {
	logs := logPool.Get().(*accessLogs)
	defer logs.release()
	res := &Result{Covered: make([]bool, k.NumBlocks())}
	res.CoveredBy[0] = make([]bool, k.NumBlocks())
	res.CoveredBy[1] = make([]bool, k.NumBlocks())

	hints := sched.Hints
	irqs := append([]IRQHint(nil), sched.IRQs...)
	cur := int32(0)
	globalStep := 0
	var ev sim.Event

	// Done-ness is monotone and a thread only finishes during its own Step,
	// so it is tracked in flags instead of re-querying State() on the
	// other thread every step.
	var done [2]bool
	done[0] = threads[0].State() == sim.Done
	done[1] = threads[1].State() == sim.Done

	for {
		t := threads[cur]
		switch t.State() {
		case sim.Done, sim.BlockedOnLock:
			other := 1 - cur
			o := threads[other]
			if o.State() == sim.Runnable {
				cur = other
				res.Switches++
				continue
			}
			if done[cur] && done[other] {
				res.Steps = globalStep
				for i, l := range logs {
					res.Accesses[i] = make([]syz.Access, len(l))
					copy(res.Accesses[i], l)
				}
				return res, nil
			}
			// Both threads stuck: with single-lock critical sections this
			// is unreachable, but report it rather than spinning.
			return nil, fmt.Errorf("ski: deadlock executing %s (A=%v B=%v)",
				cti, threads[0].State(), threads[1].State())
		}

		// Drop hints that name finished threads: they can never fire.
		for len(hints) > 0 && done[hints[0].Thread] {
			hints = hints[1:]
		}

		if err := t.Step(&ev); err != nil {
			return nil, fmt.Errorf("ski: executing %s: %w", cti, err)
		}
		// A runnable thread that could not progress (lock contention
		// discovered during the step) forces a switch next iteration.
		switch t.State() {
		case sim.BlockedOnLock:
			continue
		case sim.Done:
			done[cur] = true
		}
		globalStep++

		if ev.EnteredBlock {
			res.Covered[ev.Block] = true
			res.CoveredBy[cur][ev.Block] = true
		}
		if ev.Read || ev.Write {
			logs[cur] = append(logs[cur], syz.Access{
				Ref: ev.Ref, Write: ev.Write, Addr: ev.Addr,
				Value: ev.Value, Lockset: ev.Lockset, Step: globalStep,
			})
		}
		if ev.BugHit {
			res.BugsHit = append(res.BugsHit, ev.BugID)
		}

		// Interrupt injection: any pending IRQ hint for this thread fires
		// on the first execution of its instruction.
		for qi := 0; qi < len(irqs); {
			q := irqs[qi]
			if q.Thread == cur && q.Ref == ev.Ref && q.IRQ >= 0 && int(q.IRQ) < len(k.IRQs) {
				t.InjectIRQ(k.IRQs[q.IRQ].Fn)
				irqs = append(irqs[:qi], irqs[qi+1:]...)
				continue
			}
			qi++
		}

		// Schedule-point hook: every block entry is a preemption point a
		// hook may seize. A preemption consumes this event's switch
		// opportunity — the armed hint is not also matched against it.
		if hooks != nil && hooks.SchedulePoint != nil && ev.EnteredBlock {
			if hooks.SchedulePoint(cur, ev.Ref, globalStep) == HookPreempt {
				other := 1 - cur
				if !done[other] {
					cur = other
					res.Switches++
				}
				continue
			}
		}

		// Hint firing: the earliest hint is armed only for its own thread.
		if len(hints) > 0 && hints[0].Thread == cur && hints[0].Ref == ev.Ref {
			hints = hints[1:]
			other := 1 - cur
			if !done[other] {
				cur = other
				res.Switches++
				res.HintsFired++
			}
		}
	}
}

// ExecuteSeq runs the CTI's two STIs back to back on one machine with no
// interleaving (A fully, then B). This is the "no concurrency" reference
// some metrics need (e.g. schedule-dependent block coverage excludes the
// blocks sequential execution reaches).
func ExecuteSeq(k *kernel.Kernel, cti CTI) (*Result, error) {
	return Execute(k, cti, Schedule{})
}

// Sampler proposes candidate schedules for a CTI, mirroring SKI's
// PCT-based interleaving exploration: switch points are drawn uniformly
// over the dynamic instruction traces observed in the STIs' sequential
// runs (the same priming information Snowboard and Razzer reuse, §3).
type Sampler struct {
	rng   *xrand.RNG
	profA *syz.Profile
	profB *syz.Profile
}

// NewSampler creates a deterministic schedule sampler for the CTI whose
// sequential profiles are profA and profB.
func NewSampler(profA, profB *syz.Profile, seed uint64) *Sampler {
	return &Sampler{rng: xrand.New(seed), profA: profA, profB: profB}
}

// Next proposes a two-hint schedule: yield A→B at a random instruction of
// A's sequential trace, yield B→A at a random instruction of B's trace.
// Two hints suffice for most concurrency bugs (§3.1, citing PCT's small-d
// observation), and both the paper and this reproduction use them as the
// default.
func (s *Sampler) Next() Schedule { return s.NextD(2) }

// NextD proposes a d-hint schedule — the PCT generalisation with d change
// points: hints alternate between the threads (A, B, A, ...), each at a
// uniformly random instruction of the owning thread's sequential trace.
// Hints whose instruction is not reached are skipped by the executor, so
// larger d degrades gracefully. d < 1 yields the empty (serial) schedule.
func (s *Sampler) NextD(d int) Schedule {
	var sched Schedule
	traces := [2][]sim.InstrRef{s.profA.InstrTrace, s.profB.InstrTrace}
	for i := 0; i < d; i++ {
		th := int32(i % 2)
		trace := traces[th]
		sched.Hints = append(sched.Hints, Hint{
			Thread: th,
			Ref:    trace[s.rng.Intn(len(trace))],
		})
	}
	return sched
}

// NextWithIRQs proposes a two-hint schedule plus nIRQ random interrupt
// injections drawn over the two threads' traces; numIRQs is the kernel's
// handler count. With numIRQs == 0 it degenerates to Next().
func (s *Sampler) NextWithIRQs(nIRQ, numIRQs int) Schedule {
	sched := s.Next()
	if numIRQs <= 0 {
		return sched
	}
	traces := [2][]sim.InstrRef{s.profA.InstrTrace, s.profB.InstrTrace}
	for i := 0; i < nIRQ; i++ {
		th := int32(s.rng.Intn(2))
		trace := traces[th]
		sched.IRQs = append(sched.IRQs, IRQHint{
			Thread: th,
			Ref:    trace[s.rng.Intn(len(trace))],
			IRQ:    int32(s.rng.Intn(numIRQs)),
		})
	}
	return sched
}

// NextUnique proposes up to maxTries schedules and returns the first whose
// Key is not in seen, recording it there. ok=false when the sampler could
// not find a fresh schedule (interleaving space exhausted for this CTI).
func (s *Sampler) NextUnique(seen map[string]bool, maxTries int) (Schedule, bool) {
	for i := 0; i < maxTries; i++ {
		sc := s.Next()
		k := sc.Key()
		if !seen[k] {
			seen[k] = true
			return sc, true
		}
	}
	return Schedule{}, false
}
