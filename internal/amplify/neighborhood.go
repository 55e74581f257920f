// Package amplify is the bug-amplification subsystem (DESIGN.md §14):
// given one failing (CTI, schedule) witness, it searches the schedule's
// neighborhood for interleavings that reproduce the bug more reliably —
// the Black-Box Bug-Amplification workload of ROADMAP item 4. Candidate
// neighbors are optionally ranked with the learned coverage predictor so
// only the top-K predicted-similar schedules are executed, execution goes
// through an explore.Executor, and repro-rate trials fan out via
// internal/parallel with worker-count-invariant results.
package amplify

import (
	"snowcat/internal/ski"
	"snowcat/internal/xrand"
)

// traceIndex returns the position of the first dynamic occurrence of ref
// in trace, or -1 when the instruction was never executed sequentially.
func traceIndex(trace []ski.InstrRef, ref ski.InstrRef) int {
	for i, r := range trace {
		if r == ref {
			return i
		}
	}
	return -1
}

// Neighbors generates the deterministic schedule neighborhood of origin:
// every candidate is within one edit of the origin, where an edit is a
// hint-point jitter (the switch point slides up to radius positions along
// the owning thread's sequential trace), a hint drop, an adjacent-hint
// swap, a cross-thread hint transplant (the switch point moves to the
// same trace position of the other thread), a seeded hint addition, or an
// IRQ-timing shift. Candidates are deduplicated by Schedule.Key, the
// origin itself is excluded, and the result order is a pure function of
// (origin, traces, radius, seed) — the generator draws nothing from
// execution, so candidate sets are bit-identical at any worker count.
func Neighbors(origin ski.Schedule, traces [2][]ski.InstrRef, radius int, seed uint64) []ski.Schedule {
	if radius < 1 {
		radius = 1
	}
	seen := map[string]bool{origin.Key(): true}
	var out []ski.Schedule
	emit := func(s ski.Schedule) {
		if s.Validate() != nil {
			return // unreachable for edits of a valid origin; belt and braces
		}
		k := s.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	cloneHints := func() []ski.Hint { return append([]ski.Hint(nil), origin.Hints...) }
	cloneIRQs := func() []ski.IRQHint {
		if len(origin.IRQs) == 0 {
			return nil
		}
		return append([]ski.IRQHint(nil), origin.IRQs...)
	}

	// Hint-point jitter: slide each switch point along its thread's trace.
	for i, h := range origin.Hints {
		pos := traceIndex(traces[h.Thread], h.Ref)
		if pos < 0 {
			continue // unfired hint: nothing to slide from
		}
		for d := -radius; d <= radius; d++ {
			np := pos + d
			if d == 0 || np < 0 || np >= len(traces[h.Thread]) {
				continue
			}
			hints := cloneHints()
			hints[i].Ref = traces[h.Thread][np]
			emit(ski.Schedule{Hints: hints, IRQs: cloneIRQs()})
		}
	}

	// Cross-thread transplant: the switch point moves to the other
	// thread's trace at the same position (clamped to its length).
	for i, h := range origin.Hints {
		other := 1 - h.Thread
		if len(traces[other]) == 0 {
			continue
		}
		pos := traceIndex(traces[h.Thread], h.Ref)
		if pos < 0 {
			pos = 0
		}
		if pos >= len(traces[other]) {
			pos = len(traces[other]) - 1
		}
		hints := cloneHints()
		hints[i] = ski.Hint{Thread: other, Ref: traces[other][pos]}
		emit(ski.Schedule{Hints: hints, IRQs: cloneIRQs()})
	}

	// Hint drop.
	for i := range origin.Hints {
		hints := append(cloneHints()[:i], origin.Hints[i+1:]...)
		emit(ski.Schedule{Hints: hints, IRQs: cloneIRQs()})
	}

	// Adjacent-hint swap: hint order is semantic (hints arm in order).
	for i := 0; i+1 < len(origin.Hints); i++ {
		hints := cloneHints()
		hints[i], hints[i+1] = hints[i+1], hints[i]
		emit(ski.Schedule{Hints: hints, IRQs: cloneIRQs()})
	}

	// Seeded hint additions: 2*radius fresh switch points drawn from the
	// two traces, inserted at drawn positions.
	rng := xrand.New(seed)
	for n := 0; n < 2*radius; n++ {
		th := int32(n % 2)
		trace := traces[th]
		if len(trace) == 0 {
			continue
		}
		ref := trace[rng.Intn(len(trace))]
		at := rng.Intn(len(origin.Hints) + 1)
		hints := cloneHints()
		hints = append(hints[:at], append([]ski.Hint{{Thread: th, Ref: ref}}, origin.Hints[at:]...)...)
		emit(ski.Schedule{Hints: hints, IRQs: cloneIRQs()})
	}

	// IRQ-timing shifts: injections slide along their thread's trace like
	// hints do.
	for i, q := range origin.IRQs {
		pos := traceIndex(traces[q.Thread], q.Ref)
		if pos < 0 {
			continue
		}
		for d := -radius; d <= radius; d++ {
			np := pos + d
			if d == 0 || np < 0 || np >= len(traces[q.Thread]) {
				continue
			}
			irqs := append([]ski.IRQHint(nil), origin.IRQs...)
			irqs[i].Ref = traces[q.Thread][np]
			emit(ski.Schedule{Hints: cloneHints(), IRQs: irqs})
		}
	}
	return out
}

// perturb derives one trial's noise variant of sched: every switch point
// and injection jitters by up to noise positions along its trace, drawn
// from rng. The perturbation is pre-planned — the trial executes a plain
// schedule — so it needs nothing from the executor beyond Execute.
func perturb(sched ski.Schedule, traces [2][]ski.InstrRef, noise int, rng *xrand.RNG) ski.Schedule {
	out := ski.Schedule{Hints: append([]ski.Hint(nil), sched.Hints...)}
	if len(sched.IRQs) > 0 {
		out.IRQs = append([]ski.IRQHint(nil), sched.IRQs...)
	}
	for i, h := range out.Hints {
		d := rng.IntRange(-noise, noise)
		pos := traceIndex(traces[h.Thread], h.Ref)
		if d == 0 || pos < 0 {
			continue
		}
		np := pos + d
		if np < 0 || np >= len(traces[h.Thread]) {
			continue
		}
		out.Hints[i].Ref = traces[h.Thread][np]
	}
	for i, q := range out.IRQs {
		d := rng.IntRange(-noise, noise)
		pos := traceIndex(traces[q.Thread], q.Ref)
		if d == 0 || pos < 0 {
			continue
		}
		np := pos + d
		if np < 0 || np >= len(traces[q.Thread]) {
			continue
		}
		out.IRQs[i].Ref = traces[q.Thread][np]
	}
	return out
}
