package ski

import (
	"testing"

	"snowcat/internal/kernel"
	"snowcat/internal/sim"
	"snowcat/internal/syz"
)

// familyFixture generates a kernel with one bug of each new family.
func familyFixture(seed uint64) *kernel.Kernel {
	cfg := kernel.SmallConfig(seed)
	cfg.NumMissedWakeup = 1
	cfg.NumDoubleFree = 1
	cfg.NumTOCTOU = 1
	return kernel.Generate(cfg)
}

func findBug(t *testing.T, k *kernel.Kernel, kind kernel.BugKind) kernel.Bug {
	t.Helper()
	for _, b := range k.Bugs {
		if b.Kind == kind {
			return b
		}
	}
	t.Fatalf("no %s bug planted", kind)
	return kernel.Bug{}
}

// witnessCTI builds the directed CTI for a planted bug: the writer syscall
// with its trigger argument on thread A, the reader on thread B.
func witnessCTI(bug kernel.Bug, arg int64) CTI {
	return CTI{
		ID: int64(bug.ID),
		A:  &syz.STI{ID: 1, Calls: []sim.Call{{Syscall: bug.WriterSyscall, Args: []int64{arg}}}},
		B:  &syz.STI{ID: 2, Calls: []sim.Call{{Syscall: bug.ReaderSyscall, Args: []int64{0}}}},
	}
}

// witnessSchedule derives a firing schedule from the bug's ground-truth
// trigger window. Single-window families need one switch off the writer
// inside the window; TOCTOU needs a second switch out of the reader's
// check-to-use gap while the writer clobbers the checked value.
func witnessSchedule(k *kernel.Kernel, bug kernel.Bug) Schedule {
	switch bug.Kind {
	case kernel.MissedWakeup:
		// Switch to the waiter the moment the waker enters its skip path.
		return Schedule{Hints: []Hint{
			{Thread: 0, Ref: sim.InstrRef{Block: bug.WindowOpen, Idx: 0}},
		}}
	case kernel.DoubleFree:
		// Switch to the cleanup path after the error path's first free,
		// before the closing block's gErr clear executes.
		return Schedule{Hints: []Hint{
			{Thread: 0, Ref: sim.InstrRef{Block: bug.WindowClose, Idx: 0}},
		}}
	case kernel.TOCTOU:
		// Switch 1: writer pauses entering the clobber block, reader runs
		// its check. Switch 2: reader pauses in the check-to-use gap
		// (block r4 of its function), writer clobbers, reader uses.
		rFn := k.Func(k.Syscalls[bug.ReaderSyscall].Fn)
		gap := rFn.Blocks[4]
		return Schedule{Hints: []Hint{
			{Thread: 0, Ref: sim.InstrRef{Block: bug.WindowClose, Idx: 0}},
			{Thread: 1, Ref: sim.InstrRef{Block: gap, Idx: 0}},
		}}
	}
	return Schedule{}
}

func TestFamilyBugsFireUnderWitness(t *testing.T) {
	k := familyFixture(61)
	for _, kind := range []kernel.BugKind{kernel.MissedWakeup, kernel.DoubleFree, kernel.TOCTOU} {
		bug := findBug(t, k, kind)
		cti := witnessCTI(bug, bug.TriggerArg)
		sched := witnessSchedule(k, bug)
		res, err := Execute(k, cti, sched)
		if err != nil {
			t.Fatal(err)
		}
		if !res.HitBug(bug.ID) {
			t.Errorf("%s: witness schedule %q did not fire bug %d (hit %v)",
				kind, sched.Key(), bug.ID, res.BugsHit)
		}
	}
}

func TestFamilyBugsNeverFireSequentially(t *testing.T) {
	k := familyFixture(61)
	for _, kind := range []kernel.BugKind{kernel.MissedWakeup, kernel.DoubleFree, kernel.TOCTOU} {
		bug := findBug(t, k, kind)
		res, err := ExecuteSeq(k, witnessCTI(bug, bug.TriggerArg))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.BugsHit) != 0 {
			t.Errorf("%s: sequential run hit bugs %v", kind, res.BugsHit)
		}
	}
}

func TestFamilyBugsNeedTriggerArg(t *testing.T) {
	k := familyFixture(61)
	for _, kind := range []kernel.BugKind{kernel.MissedWakeup, kernel.DoubleFree, kernel.TOCTOU} {
		bug := findBug(t, k, kind)
		wrong := (bug.TriggerArg + 1) % 8
		res, err := Execute(k, witnessCTI(bug, wrong), witnessSchedule(k, bug))
		if err != nil {
			t.Fatal(err)
		}
		if res.HitBug(bug.ID) {
			t.Errorf("%s: bug %d fired with wrong writer argument", kind, bug.ID)
		}
	}
}
