package sim

import (
	"errors"
	"testing"
	"testing/quick"

	"snowcat/internal/kasm"
	"snowcat/internal/kernel"
)

// This file holds the executor's property-based suite (testing/quick, in
// the style of internal/metrics): randomised interleavings and budgets
// must never break the lock-ownership, step-budget, and typed-error
// invariants the resilience layer leans on.

// randomCalls derives up to four well-formed syscalls from raw bytes.
func randomCalls(k *kernel.Kernel, raw []uint8) []Call {
	var calls []Call
	for i := 0; i+2 < len(raw) && len(calls) < 4; i += 3 {
		calls = append(calls, Call{
			Syscall: int32(int(raw[i]) % len(k.Syscalls)),
			Args:    []int64{int64(raw[i+1] % 8), int64(raw[i+2] % 8), 1},
		})
	}
	return calls
}

// lockInvariantsHold cross-checks Machine.LockOwner against each thread's
// Held bitmask: a lock is owned by at most one thread, and the two views
// agree exactly.
func lockInvariantsHold(m *Machine, threads []*Thread) bool {
	for l := int32(0); int(l) < m.K.NumLocks; l++ {
		owner := m.LockOwner(l)
		holders := 0
		for _, th := range threads {
			if th.Held()&(1<<uint(l)) != 0 {
				holders++
				if owner != th.ID {
					return false
				}
			}
		}
		if holders > 1 || (holders == 0 && owner != -1) {
			return false
		}
	}
	return true
}

// TestPropertyLockOwnershipExclusive interleaves two threads under random
// schedule bits and asserts mutual exclusion after every single step.
func TestPropertyLockOwnershipExclusive(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(19))
	f := func(rawA, rawB, schedule []uint8) bool {
		m := NewMachine(k)
		threads := []*Thread{
			NewThread(m, 0, randomCalls(k, rawA)),
			NewThread(m, 1, randomCalls(k, rawB)),
		}
		cur := 0
		var ev Event
		for step := 0; step < 4000; step++ {
			if threads[0].State() == Done && threads[1].State() == Done {
				break
			}
			if len(schedule) > 0 && schedule[step%len(schedule)]%2 == 1 {
				cur = 1 - cur
			}
			th := threads[cur]
			if th.State() != Runnable {
				cur = 1 - cur
				th = threads[cur]
				if th.State() != Runnable {
					break // both threads parked; nothing left to check
				}
			}
			if err := th.Step(&ev); err != nil {
				return false
			}
			if !lockInvariantsHold(m, threads) {
				return false
			}
		}
		return lockInvariantsHold(m, threads)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyStepsWithinLimit pins the per-execution step budget: however
// the run ends, the machine never executes past Limit instructions, and a
// budget kill surfaces as ErrStepLimit rather than a panic.
func TestPropertyStepsWithinLimit(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(21))
	f := func(raw []uint8, budget uint8) bool {
		limit := int(budget)%40 + 1
		m := NewMachine(k)
		m.Limit = limit
		th := NewThread(m, 0, randomCalls(k, raw))
		var ev Event
		for th.State() == Runnable {
			if err := th.Step(&ev); err != nil {
				return errors.Is(err, ErrStepLimit) && m.Steps <= limit
			}
		}
		return m.Steps <= limit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestBadJumpIsTypedError pins the satellite conversion of executor panics
// into errors: a jump to a block outside its function returns ErrBadJump.
func TestBadJumpIsTypedError(t *testing.T) {
	k := buildKernel(1, 0, [][][]kasm.Instr{{
		{{Op: kasm.OpJmp, Target: 99}},
	}}, []kernel.Syscall{{ID: 0, Name: "s", Fn: 0}})
	m := NewMachine(k)
	th := NewThread(m, 0, []Call{{Syscall: 0}})
	var ev Event
	var err error
	for th.State() == Runnable {
		if err = th.Step(&ev); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrBadJump) {
		t.Fatalf("err = %v, want ErrBadJump", err)
	}
}

// TestFallthroughOffFunctionIsTypedError covers the other ErrBadJump path:
// a non-terminated final block falls off the function end.
func TestFallthroughOffFunctionIsTypedError(t *testing.T) {
	k := buildKernel(1, 0, [][][]kasm.Instr{{
		{{Op: kasm.OpNop}},
	}}, []kernel.Syscall{{ID: 0, Name: "s", Fn: 0}})
	m := NewMachine(k)
	th := NewThread(m, 0, []Call{{Syscall: 0}})
	var ev Event
	var err error
	for th.State() == Runnable {
		if err = th.Step(&ev); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrBadJump) {
		t.Fatalf("err = %v, want ErrBadJump", err)
	}
}

// TestBadCallIsTypedError pins the invalid call targets: a syscall naming a
// missing function, an out-of-range syscall number, and an OpCall to a
// missing callee all surface as ErrBadCall.
func TestBadCallIsTypedError(t *testing.T) {
	k := buildKernel(1, 0, [][][]kasm.Instr{{
		{{Op: kasm.OpCall, Callee: 42}, {Op: kasm.OpRet}},
	}}, []kernel.Syscall{
		{ID: 0, Name: "s", Fn: 0},
		{ID: 1, Name: "ghost", Fn: 77},
	})
	cases := []Call{
		{Syscall: 99}, // out-of-range syscall number
		{Syscall: -1}, // negative syscall number
		{Syscall: 1},  // syscall whose function does not exist
		{Syscall: 0},  // OpCall to a missing callee
	}
	for i, call := range cases {
		m := NewMachine(k)
		th := NewThread(m, 0, []Call{call})
		var ev Event
		var err error
		for th.State() == Runnable {
			if err = th.Step(&ev); err != nil {
				break
			}
		}
		if !errors.Is(err, ErrBadCall) {
			t.Fatalf("case %d: err = %v, want ErrBadCall", i, err)
		}
	}
}
