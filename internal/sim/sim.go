// Package sim implements the deterministic interpreter for the synthetic
// kernel ISA.
//
// It is the execution substrate underneath both the sequential profiler
// (package syz) and the SKI-style concurrent executor (package ski). The
// interpreter steps one instruction at a time so that a scheduler can
// interleave threads at instruction granularity, exactly the control SKI
// obtains by instrumenting QEMU. Each step reports what happened — block
// entry, memory access with the current lockset, lock transitions, planted
// bug hits — giving the tracer everything the coverage collector and the
// data-race detector need.
package sim

import (
	"fmt"

	"snowcat/internal/kasm"
	"snowcat/internal/kernel"
)

// Call is one syscall invocation within a sequential test input.
type Call struct {
	Syscall int32
	Args    []int64
}

// InstrRef identifies a static instruction: a block and an index within it.
type InstrRef struct {
	Block int32
	Idx   int32
}

// Valid reports whether the reference points at a real instruction of k.
func (r InstrRef) Valid(k *kernel.Kernel) bool {
	b := k.Block(r.Block)
	return b != nil && r.Idx >= 0 && int(r.Idx) < len(b.Instrs)
}

func (r InstrRef) String() string { return fmt.Sprintf("b%d:%d", r.Block, r.Idx) }

// ThreadState describes what a thread can do next.
type ThreadState uint8

const (
	// Runnable: the thread has an instruction ready to execute.
	Runnable ThreadState = iota
	// BlockedOnLock: the thread's next instruction is a lock acquire on a
	// lock held by another thread.
	BlockedOnLock
	// Done: the thread has finished all syscalls of its test input.
	Done
)

func (s ThreadState) String() string {
	switch s {
	case Runnable:
		return "runnable"
	case BlockedOnLock:
		return "blocked"
	case Done:
		return "done"
	}
	return "invalid"
}

// Event reports the observable effects of one interpreter step.
type Event struct {
	Thread       int32
	Block        int32    // block the executed instruction belongs to
	Ref          InstrRef // static identity of the executed instruction
	EnteredBlock bool     // true when this step executed a block's first instruction

	// Memory effect (at most one of Read/Write per step).
	Read, Write bool
	Addr        int32
	Value       int64
	Lockset     uint64 // bitmask of locks held by the thread at the access

	// Synchronisation and bug effects.
	LockAcq, LockRel bool
	LockID           int32
	BugHit           bool
	BugID            int32

	SyscallDone bool // the thread completed one syscall this step
}

// Machine is the shared state of one kernel execution: memory and locks.
type Machine struct {
	K         *kernel.Kernel
	Mem       []int64
	lockOwner []int32 // thread ID or -1
	lockDepth []int32 // re-entrancy depth
	Steps     int     // total instructions executed across all threads
	// Limit is an optional per-execution step budget; <= 0 (or anything
	// past MaxSteps) keeps the global MaxSteps bound. Resilience policies
	// use it to kill runaway executions early.
	Limit int
}

// NewMachine prepares a machine with freshly initialised memory.
func NewMachine(k *kernel.Kernel) *Machine {
	m := &Machine{
		K:         k,
		Mem:       make([]int64, len(k.InitMem)),
		lockOwner: make([]int32, k.NumLocks),
		lockDepth: make([]int32, k.NumLocks),
	}
	copy(m.Mem, k.InitMem)
	for i := range m.lockOwner {
		m.lockOwner[i] = -1
	}
	return m
}

// LockOwner returns the thread holding lock id, or -1.
func (m *Machine) LockOwner(id int32) int32 { return m.lockOwner[id] }

// stepLimit returns the machine's effective step budget.
func (m *Machine) stepLimit() int {
	if m.Limit > 0 && m.Limit < MaxSteps {
		return m.Limit
	}
	return MaxSteps
}

// frame is one call-stack entry. It caches the resolved function and block
// of its position, so the instructions of one block are fetched without
// re-resolving either: the cache is refilled only by a control transfer
// (enterBlock). blk is nil while the position names no instruction; the
// next Step then fails (badPosition).
type frame struct {
	fn       int32
	blockIdx int32 // index into Funcs[fn].Blocks
	instrIdx int32
	blockID  int32          // Funcs[fn].Blocks[blockIdx], valid while blk != nil
	fnp      *kasm.Function // Funcs[fn]
	blk      *kasm.Block    // the block of blockID, or nil
}

// pushFrame starts fn (a function of the kernel) on top of the stack.
func (t *Thread) pushFrame(fn int32, fnp *kasm.Function) {
	t.stack = append(t.stack, frame{fn: fn, fnp: fnp})
	t.enterBlock(&t.stack[len(t.stack)-1], 0)
}

// enterBlock moves the frame to the first instruction of block index idx
// of its function and refills its block cache. A position that names no
// instruction leaves the cache empty, so the next Step reports it.
func (t *Thread) enterBlock(f *frame, idx int32) {
	f.blockIdx, f.instrIdx, f.blk = idx, 0, nil
	if idx >= 0 && int(idx) < len(f.fnp.Blocks) {
		id := f.fnp.Blocks[idx]
		if b := t.m.K.Block(id); b != nil && len(b.Instrs) > 0 {
			f.blockID, f.blk = id, b
		}
	}
}

// Thread executes one sequential test input (a sequence of syscalls).
type Thread struct {
	ID    int32
	Regs  [kasm.NumRegs]int64
	Flag  int64 // last comparison result: left - right
	Steps int   // instructions executed by this thread

	m       *Machine
	sti     []Call
	nextSC  int
	stack   []frame
	state   ThreadState
	waiting int32  // lock blocked on, when state == BlockedOnLock
	held    uint64 // bitmask of locks held
	failure error  // pending ErrBadCall, surfaced by the next Step
}

// NewThread creates a thread on machine m that will execute sti.
// The thread is Done immediately if sti is empty.
func NewThread(m *Machine, id int32, sti []Call) *Thread {
	t := &Thread{ID: id, m: m, sti: sti, state: Done}
	t.startNextSyscall()
	return t
}

// State returns the thread's current state, re-evaluating lock blockage:
// a thread blocked on a lock becomes runnable once the lock is released.
func (t *Thread) State() ThreadState {
	if t.state == BlockedOnLock {
		owner := t.m.lockOwner[t.waiting]
		if owner == -1 || owner == t.ID {
			t.state = Runnable
		}
	}
	return t.state
}

// Held returns the bitmask of locks currently held by the thread.
func (t *Thread) Held() uint64 { return t.held }

// startNextSyscall loads the next syscall of the STI, placing its arguments
// in r0..r(n-1) per the kernel ABI. Remaining registers keep their values,
// modelling uninitialised kernel state. A call naming an unknown syscall or
// function leaves the thread Runnable with a pending failure that the next
// Step surfaces as an ErrBadCall-wrapped error.
func (t *Thread) startNextSyscall() {
	if t.nextSC >= len(t.sti) {
		t.state = Done
		return
	}
	call := t.sti[t.nextSC]
	t.nextSC++
	if call.Syscall < 0 || int(call.Syscall) >= len(t.m.K.Syscalls) {
		t.failure = fmt.Errorf("%w: thread %d: syscall %d outside [0,%d)",
			ErrBadCall, t.ID, call.Syscall, len(t.m.K.Syscalls))
		t.state = Runnable
		return
	}
	sc := t.m.K.Syscalls[call.Syscall]
	fnp := t.m.K.Func(sc.Fn)
	if fnp == nil {
		t.failure = fmt.Errorf("%w: thread %d: syscall %d names unknown function f%d",
			ErrBadCall, t.ID, call.Syscall, sc.Fn)
		t.state = Runnable
		return
	}
	for i := 0; i < sc.NumArgs && i < len(call.Args); i++ {
		t.Regs[i] = call.Args[i]
	}
	t.stack = t.stack[:0]
	t.pushFrame(sc.Fn, fnp)
	t.state = Runnable
}

// PC returns the static reference of the next instruction to execute,
// or an invalid ref when the thread is Done.
func (t *Thread) PC() InstrRef {
	if t.state == Done || len(t.stack) == 0 {
		return InstrRef{Block: -1, Idx: -1}
	}
	f := &t.stack[len(t.stack)-1]
	fn := t.m.K.Func(f.fn)
	return InstrRef{Block: fn.Blocks[f.blockIdx], Idx: f.instrIdx}
}

// ErrStepLimit is returned by Step when the machine's step budget is
// exhausted, guarding against pathological executions.
var ErrStepLimit = fmt.Errorf("sim: machine step limit exceeded")

// ErrBadJump is returned (wrapped) by Step when control flow names a block
// outside the current function or falls off its end — unreachable for
// validated kernels, reachable for corrupted or fuzzed inputs.
var ErrBadJump = fmt.Errorf("sim: invalid jump target")

// ErrBadCall is returned (wrapped) by Step when a syscall or call names an
// unknown syscall number or function — likewise only reachable for
// corrupted inputs, which must degrade to an error, not a worker panic.
var ErrBadCall = fmt.Errorf("sim: invalid call target")

// MaxSteps bounds the total instructions one machine may execute.
const MaxSteps = 4 << 20

// Step executes one instruction of the thread and reports its effects in
// *ev, which it overwrites. Stepping a Done thread is a no-op (an event
// naming only the thread). If the next instruction is a lock acquire on a
// contended lock, the thread transitions to BlockedOnLock and the event
// reports no progress; the scheduler must run another thread.
func (t *Thread) Step(ev *Event) error {
	*ev = Event{Thread: t.ID}
	if t.failure != nil {
		return t.failure
	}
	if t.State() != Runnable {
		return nil
	}
	if t.m.Steps >= t.m.stepLimit() {
		return ErrStepLimit
	}

	f := &t.stack[len(t.stack)-1]
	b := f.blk
	if b == nil {
		return t.badPosition(f)
	}
	in := &b.Instrs[f.instrIdx]

	ev.Block = f.blockID
	ev.Ref = InstrRef{Block: f.blockID, Idx: f.instrIdx}
	ev.EnteredBlock = f.instrIdx == 0

	// Lock acquisition may block without consuming the instruction.
	if in.Op == kasm.OpLock {
		owner := t.m.lockOwner[in.LockID]
		if owner != -1 && owner != t.ID {
			t.state = BlockedOnLock
			t.waiting = in.LockID
			ev.EnteredBlock = false // re-evaluated when actually executed
			return nil
		}
	}

	t.m.Steps++
	t.Steps++

	switch in.Op {
	case kasm.OpNop:
	case kasm.OpMovI:
		t.Regs[in.Rd] = in.Imm
	case kasm.OpMov:
		t.Regs[in.Rd] = t.Regs[in.Rs]
	case kasm.OpAdd:
		t.Regs[in.Rd] += t.Regs[in.Rs]
	case kasm.OpAddI:
		t.Regs[in.Rd] += in.Imm
	case kasm.OpSub:
		t.Regs[in.Rd] -= t.Regs[in.Rs]
	case kasm.OpXor:
		t.Regs[in.Rd] ^= t.Regs[in.Rs]
	case kasm.OpAnd:
		t.Regs[in.Rd] &= t.Regs[in.Rs]
	case kasm.OpLoad:
		t.Regs[in.Rd] = t.m.Mem[in.Addr]
		ev.Read = true
		ev.Addr = in.Addr
		ev.Value = t.Regs[in.Rd]
		ev.Lockset = t.held
	case kasm.OpStore:
		t.m.Mem[in.Addr] = t.Regs[in.Rs]
		ev.Write = true
		ev.Addr = in.Addr
		ev.Value = t.Regs[in.Rs]
		ev.Lockset = t.held
	case kasm.OpCmp:
		t.Flag = t.Regs[in.Rd] - t.Regs[in.Rs]
	case kasm.OpCmpI:
		t.Flag = t.Regs[in.Rd] - in.Imm
	case kasm.OpLock:
		t.m.lockOwner[in.LockID] = t.ID
		t.m.lockDepth[in.LockID]++
		t.held |= 1 << uint(in.LockID)
		ev.LockAcq = true
		ev.LockID = in.LockID
	case kasm.OpUnlock:
		if t.m.lockOwner[in.LockID] == t.ID {
			t.m.lockDepth[in.LockID]--
			if t.m.lockDepth[in.LockID] <= 0 {
				t.m.lockDepth[in.LockID] = 0
				t.m.lockOwner[in.LockID] = -1
				t.held &^= 1 << uint(in.LockID)
			}
		}
		ev.LockRel = true
		ev.LockID = in.LockID
	case kasm.OpBug:
		ev.BugHit = true
		ev.BugID = int32(in.Imm)
	case kasm.OpJmp:
		return t.jumpTo(f, in.Target)
	case kasm.OpJeq:
		return t.branch(f, in.Target, t.Flag == 0)
	case kasm.OpJne:
		return t.branch(f, in.Target, t.Flag != 0)
	case kasm.OpJlt:
		return t.branch(f, in.Target, t.Flag < 0)
	case kasm.OpJge:
		return t.branch(f, in.Target, t.Flag >= 0)
	case kasm.OpCall:
		callee := t.m.K.Func(in.Callee)
		if callee == nil {
			return fmt.Errorf("%w: thread %d calls unknown function f%d at %s",
				ErrBadCall, t.ID, in.Callee, ev.Ref)
		}
		// Return continues at the next block of the caller.
		t.enterBlock(f, f.blockIdx+1)
		t.pushFrame(in.Callee, callee)
		return nil
	case kasm.OpRet:
		t.stack = t.stack[:len(t.stack)-1]
		if len(t.stack) == 0 {
			ev.SyscallDone = true
			t.startNextSyscall()
		}
		return nil
	default:
		return fmt.Errorf("sim: thread %d: unknown opcode %d at %s", t.ID, in.Op, ev.Ref)
	}

	// Move to the next instruction within the block.
	f.instrIdx++
	if int(f.instrIdx) >= len(b.Instrs) {
		// Fallthrough to the lexically next block.
		t.enterBlock(f, f.blockIdx+1)
		if int(f.blockIdx) >= len(f.fnp.Blocks) {
			// A block without terminator at the end of a function
			// cannot be generated, but guard anyway.
			return fmt.Errorf("%w: thread %d fell off function f%d", ErrBadJump, t.ID, f.fn)
		}
	}
	return nil
}

// badPosition reports why a frame with an empty block cache names no
// instruction: its block index is past the function's end, or the block is
// missing from the kernel or empty.
func (t *Thread) badPosition(f *frame) error {
	if int(f.blockIdx) >= len(f.fnp.Blocks) {
		return fmt.Errorf("%w: thread %d fell off function f%d", ErrBadJump, t.ID, f.fn)
	}
	return fmt.Errorf("%w: thread %d at invalid instruction b%d:%d",
		ErrBadJump, t.ID, f.fnp.Blocks[f.blockIdx], f.instrIdx)
}

// branch redirects control to target when taken; otherwise control falls
// through to the next block.
func (t *Thread) branch(f *frame, target int32, taken bool) error {
	if taken {
		return t.jumpTo(f, target)
	}
	t.enterBlock(f, f.blockIdx+1)
	return nil
}

// jumpTo moves the frame to the start of the block with ID target. A target
// outside the function — unreachable for validated kernels — is an
// ErrBadJump-wrapped error, not a panic, so corrupted inputs degrade
// instead of crashing pool workers.
func (t *Thread) jumpTo(f *frame, target int32) error {
	for i, bid := range f.fnp.Blocks {
		if bid == target {
			t.enterBlock(f, int32(i))
			return nil
		}
	}
	return fmt.Errorf("%w: thread %d: target b%d not in f%d", ErrBadJump, t.ID, target, f.fnp.ID)
}

// InjectIRQ pushes an interrupt handler function onto the thread's call
// stack: the handler executes to completion via normal stepping, then its
// final ret pops back to the interrupted instruction stream. Injection is
// ignored for Done threads (nothing to interrupt). Injection while blocked
// on a lock is allowed — the handler runs, then the lock acquire retries —
// which is exactly how a masked-interrupt-free kernel behaves.
func (t *Thread) InjectIRQ(fn int32) {
	fnp := t.m.K.Func(fn)
	if t.state == Done || fnp == nil {
		return
	}
	t.pushFrame(fn, fnp)
	if t.state == BlockedOnLock {
		// The handler may proceed even though the original instruction is
		// still waiting for its lock.
		t.state = Runnable
	}
}

// StackDepth returns the current call-stack depth (1 when executing the
// syscall's top-level function; +1 per nested call or injected handler).
func (t *Thread) StackDepth() int { return len(t.stack) }
