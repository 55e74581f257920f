// Package race detects potential data races in concurrent execution traces.
//
// It stands in for the DataCollider-style detector the paper runs inside
// SKI (§5.3). DataCollider detects a race by pausing one access and
// observing whether another thread touches the same address *during the
// pause* — detection is temporal, not purely lockset-based. This detector
// mirrors that: two memory accesses constitute a potential data race when
// they come from different threads, touch the same address, at least one
// is a write, the threads hold no common lock, and the accesses fall
// within a bounded window of the interleaved execution order. The window
// makes race discovery schedule-dependent, exactly the property that lets
// schedule selection matter (§5.3). Races are keyed by the unordered pair
// of static racing instructions, matching the paper's "unique possible
// data races" metric — the same race found under many schedules counts
// once.
package race

import (
	"cmp"
	"fmt"
	"slices"

	"snowcat/internal/sim"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
)

// Race is one potential data race: the two racing static instructions and
// the shared address they collide on. A is always the lexically smaller
// reference so that the pair is canonical.
type Race struct {
	A, B sim.InstrRef
	Addr int32
}

// Key returns the canonical identity of the race.
func (r Race) Key() string {
	return fmt.Sprintf("%s|%s|g%d", r.A, r.B, r.Addr)
}

func (r Race) String() string {
	return fmt.Sprintf("race{%s <-> %s on g%d}", r.A, r.B, r.Addr)
}

func canonical(a, b sim.InstrRef, addr int32) Race {
	if compareRefs(b, a) < 0 {
		a, b = b, a
	}
	return Race{A: a, B: b, Addr: addr}
}

// DefaultWindow is the detection window in interleaved instruction steps:
// the DataCollider-pause equivalent. Conflicting accesses further apart
// than this in the global order are not considered temporally overlapping.
const DefaultWindow = 80

// Detect scans the two threads' access traces of a concurrent execution
// and returns the unique potential races under the default window, in
// deterministic order.
func Detect(res *ski.Result) []Race { return DetectWindow(res, DefaultWindow) }

// DetectWindow is Detect with an explicit proximity window (in global
// interleaving steps); window <= 0 means unbounded (pure lockset
// detection).
//
// Executor logs are in ascending Step (Step is the global interleaving
// position), so the detector is one sweep: for each thread-1 access it
// scans only the thread-0 accesses within window steps of it, behind a
// lower bound that only advances, and collects canonical races; sorting
// them by (A, B, Addr) and dropping adjacent duplicates leaves each unique
// race once. A log not in Step order (hand-built results) is swept in a
// stable Step-sorted copy; the races found do not depend on log order.
func DetectWindow(res *ski.Result, window int) []Race {
	a0, a1 := stepOrdered(res.Accesses[0]), stepOrdered(res.Accesses[1])
	var out []Race
	lo := 0
	for _, b := range a1 {
		if window > 0 {
			for lo < len(a0) && b.Step-a0[lo].Step > window {
				lo++
			}
		}
		for i := lo; i < len(a0); i++ {
			a := &a0[i]
			if window > 0 && a.Step-b.Step > window {
				break // not temporally overlapping, nor is anything later
			}
			if a.Addr != b.Addr {
				continue
			}
			if !a.Write && !b.Write {
				continue // read-read never races
			}
			if a.Lockset&b.Lockset != 0 {
				continue // common lock orders the accesses
			}
			out = append(out, canonical(a.Ref, b.Ref, b.Addr))
		}
	}
	slices.SortFunc(out, compareRaces)
	return slices.Compact(out)
}

// stepOrdered returns log itself when it is in ascending Step order, and a
// stable Step-sorted copy otherwise.
func stepOrdered(log []syz.Access) []syz.Access {
	byStep := func(x, y syz.Access) int { return cmp.Compare(x.Step, y.Step) }
	if slices.IsSortedFunc(log, byStep) {
		return log
	}
	log = slices.Clone(log)
	slices.SortStableFunc(log, byStep)
	return log
}

func compareRefs(a, b sim.InstrRef) int {
	if c := cmp.Compare(a.Block, b.Block); c != 0 {
		return c
	}
	return cmp.Compare(a.Idx, b.Idx)
}

// compareRaces orders races by (A, B, Addr), Detect's output order.
func compareRaces(x, y Race) int {
	if c := compareRefs(x.A, y.A); c != 0 {
		return c
	}
	if c := compareRefs(x.B, y.B); c != 0 {
		return c
	}
	return cmp.Compare(x.Addr, y.Addr)
}

// Set accumulates unique races across many executions, the cumulative
// "data-race-coverage" metric of §5.3.
type Set struct {
	m map[Race]struct{}
}

// NewSet returns an empty cumulative race set.
func NewSet() *Set { return &Set{m: make(map[Race]struct{})} }

// Add inserts the races and returns how many were new.
func (s *Set) Add(races []Race) int {
	n := 0
	for _, r := range races {
		if _, ok := s.m[r]; !ok {
			s.m[r] = struct{}{}
			n++
		}
	}
	return n
}

// Size returns the number of unique races seen so far.
func (s *Set) Size() int { return len(s.m) }

// Has reports whether an equivalent race is already in the set.
func (s *Set) Has(r Race) bool {
	_, ok := s.m[r]
	return ok
}
