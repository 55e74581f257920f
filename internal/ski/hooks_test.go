package ski

import (
	"reflect"
	"testing"

	"snowcat/internal/sim"
)

func TestHookedNilMatchesExecute(t *testing.T) {
	k, g := fixture(51)
	cti, pa, pb := mkCTI(t, k, g)
	s := NewSampler(pa, pb, 7)
	for i := 0; i < 10; i++ {
		sched := s.Next()
		want, err := Execute(k, cti, sched)
		if err != nil {
			t.Fatal(err)
		}
		for _, hooks := range []*ExecHooks{nil, {}} {
			got, err := ExecuteHooked(k, cti, sched, 0, hooks)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("schedule %d: ExecuteHooked(hooks=%v) diverges from Execute", i, hooks)
			}
		}
	}
}

func TestHookContinueIsInvisible(t *testing.T) {
	k, g := fixture(53)
	cti, pa, pb := mkCTI(t, k, g)
	sched := NewSampler(pa, pb, 9).Next()
	want, err := Execute(k, cti, sched)
	if err != nil {
		t.Fatal(err)
	}
	points := 0
	hooks := &ExecHooks{SchedulePoint: func(thread int32, ref sim.InstrRef, step int) HookAction {
		if thread != 0 && thread != 1 {
			t.Errorf("schedule point names thread %d", thread)
		}
		points++
		return HookContinue
	}}
	got, err := ExecuteHooked(k, cti, sched, 0, hooks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("HookContinue-everywhere hook changed the result")
	}
	if points == 0 {
		t.Fatal("no schedule points observed")
	}
}

func TestHookPreemptSwitches(t *testing.T) {
	k, g := fixture(57)
	cti, _, _ := mkCTI(t, k, g)
	base, err := Execute(k, cti, Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	// Preempt thread 0 at every block boundary: the run degenerates to
	// fine-grained alternation driven entirely by the hook.
	mk := func() *ExecHooks {
		return &ExecHooks{SchedulePoint: func(thread int32, ref sim.InstrRef, step int) HookAction {
			if thread == 0 {
				return HookPreempt
			}
			return HookContinue
		}}
	}
	r1, err := ExecuteHooked(k, cti, Schedule{}, 0, mk())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Switches <= base.Switches {
		t.Fatalf("preempting hook switched %d times, serial run %d", r1.Switches, base.Switches)
	}
	if r1.HintsFired != 0 {
		t.Fatalf("hook preemptions counted as hints: %d", r1.HintsFired)
	}
	// Deterministic.
	r2, err := ExecuteHooked(k, cti, Schedule{}, 0, mk())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("hooked execution not deterministic")
	}
}

func TestHookPreemptConsumesSwitchNotHint(t *testing.T) {
	// A hint armed at the exact instruction a hook preempts on must not
	// double-fire: the event yields one switch.
	k, g := fixture(59)
	cti, pa, pb := mkCTI(t, k, g)
	ref := pa.InstrTrace[0]
	sched := Schedule{Hints: []Hint{{Thread: 0, Ref: ref}, {Thread: 1, Ref: pb.InstrTrace[0]}}}
	preempted := false
	hooks := &ExecHooks{SchedulePoint: func(thread int32, r sim.InstrRef, step int) HookAction {
		if thread == 0 && r == ref && !preempted {
			preempted = true
			return HookPreempt
		}
		return HookContinue
	}}
	res, err := ExecuteHooked(k, cti, sched, 0, hooks)
	if err != nil {
		t.Fatal(err)
	}
	if !preempted {
		t.Skip("first trace instruction is not a block boundary")
	}
	// The thread-0 hint stays pending past the preempted event; only the
	// thread-1 hint can still fire (thread 0's switch point executed while
	// the hook owned it).
	if res.HintsFired > 1 {
		t.Fatalf("hints fired = %d, want <= 1", res.HintsFired)
	}
}
