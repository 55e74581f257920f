package sim

import (
	"testing"
	"testing/quick"

	"snowcat/internal/kasm"
	"snowcat/internal/kernel"
)

// buildKernel assembles a hand-written kernel for precise semantics tests.
// Layout helper: fns is a list of functions, each a list of blocks, each a
// list of instructions. Block IDs are assigned globally in order.
func buildKernel(numGlobals, numLocks int, fns [][][]kasm.Instr, syscalls []kernel.Syscall) *kernel.Kernel {
	k := &kernel.Kernel{
		Version:    "test",
		NumGlobals: numGlobals,
		NumLocks:   numLocks,
		InitMem:    make([]int64, numGlobals),
		Syscalls:   syscalls,
	}
	for fi, blocks := range fns {
		fn := &kasm.Function{ID: int32(fi), Name: "f"}
		for _, instrs := range blocks {
			b := &kasm.Block{ID: int32(len(k.Blocks)), Fn: int32(fi), Instrs: instrs}
			k.Blocks = append(k.Blocks, b)
			fn.Blocks = append(fn.Blocks, b.ID)
		}
		k.Funcs = append(k.Funcs, fn)
	}
	return k
}

// runToCompletion steps the thread until Done, returning all events.
func runToCompletion(t *testing.T, th *Thread) []Event {
	t.Helper()
	var evs []Event
	for th.State() == Runnable {
		var ev Event
		if err := th.Step(&ev); err != nil {
			t.Fatalf("step failed: %v", err)
		}
		evs = append(evs, ev)
	}
	if th.State() == BlockedOnLock {
		t.Fatal("single thread blocked on lock")
	}
	return evs
}

func TestArithmeticAndMemory(t *testing.T) {
	k := buildKernel(4, 1, [][][]kasm.Instr{{
		{
			{Op: kasm.OpMovI, Rd: 0, Imm: 5},
			{Op: kasm.OpMovI, Rd: 1, Imm: 3},
			{Op: kasm.OpAdd, Rd: 0, Rs: 1},   // r0 = 8
			{Op: kasm.OpAddI, Rd: 0, Imm: 2}, // r0 = 10
			{Op: kasm.OpSub, Rd: 0, Rs: 1},   // r0 = 7
			{Op: kasm.OpStore, Rs: 0, Addr: 2},
			{Op: kasm.OpLoad, Rd: 3, Addr: 2},
			{Op: kasm.OpRet},
		},
	}}, []kernel.Syscall{{ID: 0, Name: "s", Fn: 0, NumArgs: 0}})

	m := NewMachine(k)
	th := NewThread(m, 0, []Call{{Syscall: 0}})
	evs := runToCompletion(t, th)

	if th.Regs[0] != 7 || th.Regs[3] != 7 {
		t.Errorf("r0=%d r3=%d, want 7", th.Regs[0], th.Regs[3])
	}
	if m.Mem[2] != 7 {
		t.Errorf("mem[2]=%d, want 7", m.Mem[2])
	}
	var reads, writes int
	for _, ev := range evs {
		if ev.Read {
			reads++
			if ev.Addr != 2 || ev.Value != 7 {
				t.Errorf("read event %+v", ev)
			}
		}
		if ev.Write {
			writes++
		}
	}
	if reads != 1 || writes != 1 {
		t.Errorf("reads=%d writes=%d", reads, writes)
	}
	if !evs[0].EnteredBlock {
		t.Error("first step should enter the block")
	}
	if evs[1].EnteredBlock {
		t.Error("second step should not re-enter")
	}
}

func TestBranchTakenAndNotTaken(t *testing.T) {
	// b0: cmpi r0, 1; jeq b2 | b1: store g0<-r7(0); ret | b2: store g1; ret
	mk := func() *kernel.Kernel {
		return buildKernel(4, 1, [][][]kasm.Instr{{
			{
				{Op: kasm.OpCmpI, Rd: 0, Imm: 1},
				{Op: kasm.OpJeq, Target: 2},
			},
			{
				{Op: kasm.OpMovI, Rd: 5, Imm: 11},
				{Op: kasm.OpStore, Rs: 5, Addr: 0},
				{Op: kasm.OpRet},
			},
			{
				{Op: kasm.OpMovI, Rd: 5, Imm: 22},
				{Op: kasm.OpStore, Rs: 5, Addr: 1},
				{Op: kasm.OpRet},
			},
		}}, []kernel.Syscall{{ID: 0, Name: "s", Fn: 0, NumArgs: 1}})
	}

	m := NewMachine(mk())
	th := NewThread(m, 0, []Call{{Syscall: 0, Args: []int64{1}}}) // taken
	runToCompletion(t, th)
	if m.Mem[1] != 22 || m.Mem[0] != 0 {
		t.Errorf("taken path: mem=%v", m.Mem[:2])
	}

	m = NewMachine(mk())
	th = NewThread(m, 0, []Call{{Syscall: 0, Args: []int64{9}}}) // not taken
	runToCompletion(t, th)
	if m.Mem[0] != 11 || m.Mem[1] != 0 {
		t.Errorf("fallthrough path: mem=%v", m.Mem[:2])
	}
}

func TestConditionOps(t *testing.T) {
	// Each op tested against flag from cmpi r0, 5 with r0 = arg.
	cases := []struct {
		op    kasm.Op
		arg   int64
		taken bool
	}{
		{kasm.OpJeq, 5, true}, {kasm.OpJeq, 4, false},
		{kasm.OpJne, 4, true}, {kasm.OpJne, 5, false},
		{kasm.OpJlt, 4, true}, {kasm.OpJlt, 5, false}, {kasm.OpJlt, 6, false},
		{kasm.OpJge, 5, true}, {kasm.OpJge, 6, true}, {kasm.OpJge, 4, false},
	}
	for _, c := range cases {
		k := buildKernel(2, 1, [][][]kasm.Instr{{
			{
				{Op: kasm.OpCmpI, Rd: 0, Imm: 5},
				{Op: c.op, Target: 2},
			},
			{{Op: kasm.OpRet}},
			{
				{Op: kasm.OpMovI, Rd: 5, Imm: 1},
				{Op: kasm.OpStore, Rs: 5, Addr: 0},
				{Op: kasm.OpRet},
			},
		}}, []kernel.Syscall{{ID: 0, Name: "s", Fn: 0, NumArgs: 1}})
		m := NewMachine(k)
		th := NewThread(m, 0, []Call{{Syscall: 0, Args: []int64{c.arg}}})
		runToCompletion(t, th)
		taken := m.Mem[0] == 1
		if taken != c.taken {
			t.Errorf("%s with arg %d: taken=%v, want %v", c.op, c.arg, taken, c.taken)
		}
	}
}

func TestCallReturn(t *testing.T) {
	// f0: b0 calls f1, b1 stores r0 and rets. f1: b2 sets r0=99, rets.
	k := buildKernel(2, 1, [][][]kasm.Instr{
		{
			{{Op: kasm.OpCall, Callee: 1}},
			{
				{Op: kasm.OpStore, Rs: 0, Addr: 0},
				{Op: kasm.OpRet},
			},
		},
		{
			{
				{Op: kasm.OpMovI, Rd: 0, Imm: 99},
				{Op: kasm.OpRet},
			},
		},
	}, []kernel.Syscall{{ID: 0, Name: "s", Fn: 0, NumArgs: 0}})
	m := NewMachine(k)
	th := NewThread(m, 0, []Call{{Syscall: 0}})
	evs := runToCompletion(t, th)
	if m.Mem[0] != 99 {
		t.Errorf("mem[0]=%d, want 99 (callee effect visible after return)", m.Mem[0])
	}
	// Exactly one SyscallDone at the end.
	var dones int
	for _, ev := range evs {
		if ev.SyscallDone {
			dones++
		}
	}
	if dones != 1 {
		t.Errorf("SyscallDone events = %d, want 1", dones)
	}
}

func TestMultipleSyscallsSequence(t *testing.T) {
	// One syscall stores arg0 to g0; STI invokes it three times.
	k := buildKernel(1, 1, [][][]kasm.Instr{{
		{
			{Op: kasm.OpStore, Rs: 0, Addr: 0},
			{Op: kasm.OpRet},
		},
	}}, []kernel.Syscall{{ID: 0, Name: "s", Fn: 0, NumArgs: 1}})
	m := NewMachine(k)
	th := NewThread(m, 0, []Call{
		{Syscall: 0, Args: []int64{7}},
		{Syscall: 0, Args: []int64{8}},
		{Syscall: 0, Args: []int64{9}},
	})
	runToCompletion(t, th)
	if m.Mem[0] != 9 {
		t.Errorf("mem[0]=%d, want 9 (last call wins)", m.Mem[0])
	}
	if th.Steps != 6 {
		t.Errorf("steps=%d, want 6", th.Steps)
	}
}

func lockKernel() *kernel.Kernel {
	// syscall 0: lock l0; store g0; unlock l0; ret
	return buildKernel(1, 1, [][][]kasm.Instr{{
		{
			{Op: kasm.OpLock, LockID: 0},
			{Op: kasm.OpMovI, Rd: 0, Imm: 1},
			{Op: kasm.OpStore, Rs: 0, Addr: 0},
			{Op: kasm.OpUnlock, LockID: 0},
			{Op: kasm.OpRet},
		},
	}}, []kernel.Syscall{{ID: 0, Name: "s", Fn: 0, NumArgs: 0}})
}

func TestLockBlocksSecondThread(t *testing.T) {
	m := NewMachine(lockKernel())
	a := NewThread(m, 0, []Call{{Syscall: 0}})
	b := NewThread(m, 1, []Call{{Syscall: 0}})

	// A acquires the lock.
	var ev Event
	a.Step(&ev)
	if !ev.LockAcq {
		t.Fatal("first step should acquire")
	}
	if m.LockOwner(0) != 0 {
		t.Fatalf("lock owner = %d", m.LockOwner(0))
	}
	// B tries to acquire and blocks without consuming the instruction.
	before := b.Steps
	b.Step(&ev)
	if ev.LockAcq || b.Steps != before {
		t.Fatal("blocked thread must not make progress")
	}
	if b.State() != BlockedOnLock {
		t.Fatalf("state = %v", b.State())
	}
	// Run A to completion; lock released; B becomes runnable again.
	for a.State() == Runnable {
		if err := a.Step(&ev); err != nil {
			t.Fatal(err)
		}
	}
	if m.LockOwner(0) != -1 {
		t.Fatal("lock should be free")
	}
	if b.State() != Runnable {
		t.Fatalf("B should be unblocked, state = %v", b.State())
	}
	for b.State() == Runnable {
		if err := b.Step(&ev); err != nil {
			t.Fatal(err)
		}
	}
	if b.State() != Done {
		t.Fatalf("B state = %v", b.State())
	}
}

func TestLocksetReportedOnAccess(t *testing.T) {
	m := NewMachine(lockKernel())
	th := NewThread(m, 0, []Call{{Syscall: 0}})
	evs := runToCompletion(t, th)
	for _, ev := range evs {
		if ev.Write {
			if ev.Lockset != 1 {
				t.Errorf("write lockset = %b, want 1 (holding l0)", ev.Lockset)
			}
		}
	}
	if th.Held() != 0 {
		t.Error("locks should be released at completion")
	}
}

func TestReentrantLock(t *testing.T) {
	k := buildKernel(1, 1, [][][]kasm.Instr{{
		{
			{Op: kasm.OpLock, LockID: 0},
			{Op: kasm.OpLock, LockID: 0},
			{Op: kasm.OpUnlock, LockID: 0},
			{Op: kasm.OpStore, Rs: 0, Addr: 0},
			{Op: kasm.OpUnlock, LockID: 0},
			{Op: kasm.OpRet},
		},
	}}, []kernel.Syscall{{ID: 0, Name: "s", Fn: 0, NumArgs: 0}})
	m := NewMachine(k)
	th := NewThread(m, 0, []Call{{Syscall: 0}})
	evs := runToCompletion(t, th)
	// After one unlock of a doubly-acquired lock, it is still held.
	for _, ev := range evs {
		if ev.Write && ev.Lockset != 1 {
			t.Errorf("store should still hold lock, lockset=%b", ev.Lockset)
		}
	}
	if m.LockOwner(0) != -1 {
		t.Error("lock should be free at the end")
	}
}

func TestBugEvent(t *testing.T) {
	k := buildKernel(1, 1, [][][]kasm.Instr{{
		{
			{Op: kasm.OpBug, Imm: 3},
			{Op: kasm.OpRet},
		},
	}}, []kernel.Syscall{{ID: 0, Name: "s", Fn: 0, NumArgs: 0}})
	m := NewMachine(k)
	th := NewThread(m, 0, []Call{{Syscall: 0}})
	evs := runToCompletion(t, th)
	found := false
	for _, ev := range evs {
		if ev.BugHit {
			found = true
			if ev.BugID != 3 {
				t.Errorf("bug ID = %d", ev.BugID)
			}
		}
	}
	if !found {
		t.Error("no bug event")
	}
}

func TestEmptySTIIsDone(t *testing.T) {
	m := NewMachine(lockKernel())
	th := NewThread(m, 0, nil)
	if th.State() != Done {
		t.Fatalf("empty STI state = %v", th.State())
	}
	var ev Event
	err := th.Step(&ev)
	if err != nil || ev.EnteredBlock || ev.Read || ev.Write {
		t.Fatal("stepping a done thread must be a no-op")
	}
	if !th.PC().Valid(m.K) == false {
		t.Fatal("PC of done thread should be invalid")
	}
}

func TestGeneratedKernelAllSyscallsTerminate(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(3))
	for _, sc := range k.Syscalls {
		m := NewMachine(k)
		th := NewThread(m, 0, []Call{{Syscall: sc.ID, Args: []int64{1, 2, 3}}})
		steps := 0
		var ev Event
		for th.State() == Runnable {
			if err := th.Step(&ev); err != nil {
				t.Fatalf("syscall %s: %v", sc.Name, err)
			}
			steps++
			if steps > 200000 {
				t.Fatalf("syscall %s did not terminate", sc.Name)
			}
		}
		if th.State() != Done {
			t.Fatalf("syscall %s ended in state %v", sc.Name, th.State())
		}
	}
}

func TestGeneratedKernelDeterministicExecution(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(5))
	run := func() ([]int64, int) {
		m := NewMachine(k)
		th := NewThread(m, 0, []Call{
			{Syscall: 0, Args: []int64{4}},
			{Syscall: 3, Args: []int64{1, 2}},
		})
		var ev Event
		for th.State() == Runnable {
			if err := th.Step(&ev); err != nil {
				t.Fatal(err)
			}
		}
		return m.Mem, th.Steps
	}
	m1, s1 := run()
	m2, s2 := run()
	if s1 != s2 {
		t.Fatalf("step counts differ: %d vs %d", s1, s2)
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("memory differs at %d", i)
		}
	}
}

func TestPCReportsNextInstruction(t *testing.T) {
	m := NewMachine(lockKernel())
	th := NewThread(m, 0, []Call{{Syscall: 0}})
	pc := th.PC()
	if !pc.Valid(m.K) || pc.Idx != 0 {
		t.Fatalf("initial PC = %v", pc)
	}
	var ev Event
	if err := th.Step(&ev); err != nil {
		t.Fatal(err)
	}
	pc2 := th.PC()
	if pc2.Idx != 1 || pc2.Block != pc.Block {
		t.Fatalf("PC after one step = %v", pc2)
	}
}

func TestInstrRefString(t *testing.T) {
	r := InstrRef{Block: 4, Idx: 2}
	if r.String() != "b4:2" {
		t.Errorf("String() = %q", r.String())
	}
}

func TestThreadStateString(t *testing.T) {
	if Runnable.String() != "runnable" || BlockedOnLock.String() != "blocked" ||
		Done.String() != "done" || ThreadState(9).String() != "invalid" {
		t.Error("state strings wrong")
	}
}

func TestPropertyRandomSTIsSafe(t *testing.T) {
	// Any syscall sequence with any arguments must execute to completion
	// without errors, within the step budget, and only ever touch memory
	// inside the declared global range.
	k := kernel.Generate(kernel.SmallConfig(7))
	f := func(seed uint64, raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var calls []Call
		for i := 0; i+2 < len(raw) && len(calls) < 4; i += 3 {
			calls = append(calls, Call{
				Syscall: int32(int(raw[i]) % len(k.Syscalls)),
				Args:    []int64{int64(raw[i+1] % 8), int64(raw[i+2] % 8), 1},
			})
		}
		m := NewMachine(k)
		th := NewThread(m, 0, calls)
		var ev Event
		for th.State() == Runnable {
			if err := th.Step(&ev); err != nil {
				return false
			}
			if (ev.Read || ev.Write) && (ev.Addr < 0 || int(ev.Addr) >= k.NumGlobals) {
				return false
			}
		}
		return th.State() == Done
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyLocksAlwaysReleased(t *testing.T) {
	// After any single-threaded run, every lock is free: generated
	// critical sections are block-local, so this is an executor invariant.
	k := kernel.Generate(kernel.SmallConfig(9))
	f := func(sc uint8, a, b uint8) bool {
		m := NewMachine(k)
		th := NewThread(m, 0, []Call{{
			Syscall: int32(int(sc) % len(k.Syscalls)),
			Args:    []int64{int64(a % 8), int64(b % 8), 0},
		}})
		var ev Event
		for th.State() == Runnable {
			if err := th.Step(&ev); err != nil {
				return false
			}
		}
		for l := int32(0); int(l) < k.NumLocks; l++ {
			if m.LockOwner(l) != -1 {
				return false
			}
		}
		return th.Held() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestInjectIRQRunsHandlerAndReturns(t *testing.T) {
	// f0: store g0=1 twice with room for an injection; f1 (handler):
	// store g1=2, ret.
	k := buildKernel(2, 1, [][][]kasm.Instr{
		{
			{
				{Op: kasm.OpMovI, Rd: 0, Imm: 1},
				{Op: kasm.OpStore, Rs: 0, Addr: 0},
				{Op: kasm.OpStore, Rs: 0, Addr: 0},
				{Op: kasm.OpRet},
			},
		},
		{
			{
				{Op: kasm.OpMovI, Rd: 1, Imm: 2},
				{Op: kasm.OpStore, Rs: 1, Addr: 1},
				{Op: kasm.OpRet},
			},
		},
	}, []kernel.Syscall{{ID: 0, Name: "s", Fn: 0, NumArgs: 0}})
	m := NewMachine(k)
	th := NewThread(m, 0, []Call{{Syscall: 0}})

	// Step past the first store, then inject.
	var ev Event
	for i := 0; i < 2; i++ {
		if err := th.Step(&ev); err != nil {
			t.Fatal(err)
		}
	}
	if th.StackDepth() != 1 {
		t.Fatalf("depth %d", th.StackDepth())
	}
	th.InjectIRQ(1)
	if th.StackDepth() != 2 {
		t.Fatalf("depth after injection %d", th.StackDepth())
	}
	runToCompletion(t, th)
	if m.Mem[1] != 2 {
		t.Fatal("handler effect missing")
	}
	if m.Mem[0] != 1 {
		t.Fatal("interrupted code did not resume")
	}
	// Note: the handler clobbered r1, visible to the interrupted code —
	// matching real IRQ semantics only if handlers save registers; our
	// synthetic handlers share registers deliberately (worst case).
}

func TestInjectIRQIgnoredWhenDone(t *testing.T) {
	k := buildKernel(1, 1, [][][]kasm.Instr{
		{{{Op: kasm.OpRet}}},
	}, []kernel.Syscall{{ID: 0, Name: "s", Fn: 0, NumArgs: 0}})
	m := NewMachine(k)
	th := NewThread(m, 0, []Call{{Syscall: 0}})
	runToCompletion(t, th)
	th.InjectIRQ(0)
	if th.State() != Done {
		t.Fatal("injection revived a done thread")
	}
}
