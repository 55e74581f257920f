package ski

import (
	"encoding/binary"
	"errors"
	"reflect"
	"sync"
	"testing"

	"snowcat/internal/kernel"
	"snowcat/internal/sim"
	"snowcat/internal/syz"
)

// scheduleFromBytes derives a schedule from raw fuzz bytes: threads are
// valid (0/1) so Execute accepts it, but blocks, indices and IRQ numbers
// range over all of int32 — hostile refs exercise the relaxed skip
// semantics. Empty inputs yield nil slices so Key round-trips DeepEqual.
func scheduleFromBytes(data []byte) Schedule {
	var s Schedule
	i32 := func(off int) int32 {
		if off+4 > len(data) {
			return 0
		}
		return int32(binary.LittleEndian.Uint32(data[off : off+4]))
	}
	n := len(data) / 9
	for h := 0; h < n && h < 6; h++ {
		off := h * 9
		hint := Hint{
			Thread: int32(data[off] % 2),
			Ref:    sim.InstrRef{Block: i32(off + 1), Idx: i32(off + 5)},
		}
		if data[off]%3 == 2 {
			s.IRQs = append(s.IRQs, IRQHint{
				Thread: hint.Thread, Ref: hint.Ref, IRQ: hint.Ref.Idx % 7,
			})
		} else {
			s.Hints = append(s.Hints, hint)
		}
	}
	return s
}

// FuzzScheduleKey checks both directions of the key identity: every
// derivable schedule survives Key → ParseKey bit for bit, and any string
// ParseKey accepts canonicalises to a fixed point of the round trip.
func FuzzScheduleKey(f *testing.F) {
	f.Add([]byte{}, "")
	f.Add([]byte{0, 1, 0, 0, 0, 2, 0, 0, 0}, "0@b1:2;")
	f.Add([]byte{2, 255, 255, 255, 255, 9, 0, 0, 0}, "irq2:1@b-1:9;")
	f.Add([]byte{1, 3, 0, 0, 0, 4, 0, 0, 0, 2, 5, 0, 0, 0, 6, 0, 0, 0}, "1@b3:4;irq6:0@b5:6;")
	f.Fuzz(func(t *testing.T, data []byte, key string) {
		s := scheduleFromBytes(data)
		parsed, err := ParseKey(s.Key())
		if err != nil {
			t.Fatalf("ParseKey rejected Key output %q: %v", s.Key(), err)
		}
		if !reflect.DeepEqual(parsed, s) {
			t.Fatalf("round trip of %q: got %+v, want %+v", s.Key(), parsed, s)
		}
		// Arbitrary strings: accepted inputs must canonicalise stably.
		got, err := ParseKey(key)
		if err != nil {
			if !errors.Is(err, ErrBadKey) {
				t.Fatalf("ParseKey(%q) error %v does not wrap ErrBadKey", key, err)
			}
			return
		}
		again, err := ParseKey(got.Key())
		if err != nil || !reflect.DeepEqual(again, got) {
			t.Fatalf("ParseKey(%q) = %+v is not a round-trip fixed point (err %v)", key, got, err)
		}
	})
}

// execFixture lazily builds the kernel + CTI FuzzExecute runs everything
// against; sync.Once keeps repeated fuzz iterations cheap.
var execFixture struct {
	once sync.Once
	k    *kernel.Kernel
	cti  CTI
}

func loadExecFixture(tb testing.TB) (*kernel.Kernel, CTI) {
	execFixture.once.Do(func() {
		k := kernel.Generate(kernel.SmallConfig(25))
		gen := syz.NewGenerator(k, 26)
		execFixture.k = k
		execFixture.cti = CTI{ID: 1, A: gen.Generate(), B: gen.Generate()}
	})
	return execFixture.k, execFixture.cti
}

// FuzzExecute feeds the executor hostile schedules: whatever the hint and
// injection refs say, a run over a generated kernel must terminate without
// panicking, stay within the step budget, and report full-size coverage
// bitmaps. Invalid thread numbers must be rejected up front as
// ErrBadSchedule.
func FuzzExecute(f *testing.F) {
	f.Add([]byte{}, int32(0))
	f.Add([]byte{0, 1, 0, 0, 0, 2, 0, 0, 0}, int32(0))
	f.Add([]byte{2, 255, 255, 255, 255, 9, 0, 0, 0, 1, 7, 0, 0, 0, 1, 0, 0, 0}, int32(2))
	f.Fuzz(func(t *testing.T, data []byte, badThread int32) {
		k, cti := loadExecFixture(t)
		sched := scheduleFromBytes(data)
		res, err := Execute(k, cti, sched)
		if err != nil {
			t.Fatalf("valid-thread schedule failed: %v", err)
		}
		if res.Steps < 0 || res.Steps > sim.MaxSteps {
			t.Fatalf("steps %d outside [0, %d]", res.Steps, sim.MaxSteps)
		}
		if len(res.Covered) != k.NumBlocks() ||
			len(res.CoveredBy[0]) != k.NumBlocks() || len(res.CoveredBy[1]) != k.NumBlocks() {
			t.Fatal("coverage bitmaps not kernel-sized")
		}
		if badThread != 0 && badThread != 1 {
			bad := sched
			bad.Hints = append([]Hint{{Thread: badThread}}, bad.Hints...)
			if _, err := Execute(k, cti, bad); !errors.Is(err, ErrBadSchedule) {
				t.Fatalf("thread %d accepted: %v", badThread, err)
			}
		}
	})
}

// TestScheduleKeySingleAlloc pins the key builder's preallocated pass: one
// allocation (the final string) per call.
func TestScheduleKeySingleAlloc(t *testing.T) {
	s := Schedule{
		Hints: []Hint{
			{Thread: 0, Ref: sim.InstrRef{Block: 123, Idx: 4}},
			{Thread: 1, Ref: sim.InstrRef{Block: -7, Idx: 0}},
		},
		IRQs: []IRQHint{{Thread: 1, Ref: sim.InstrRef{Block: 9, Idx: 2}, IRQ: 3}},
	}
	if got := testing.AllocsPerRun(200, func() { _ = s.Key() }); got > 1 {
		t.Fatalf("Key allocates %.1f times per call, want <= 1", got)
	}
}

// TestParseKeyRejects pins the strict half of the parser.
func TestParseKeyRejects(t *testing.T) {
	for _, bad := range []string{
		"0@b1:2",              // unterminated
		"0b1:2;",              // missing '@'
		"0@1:2;",              // missing 'b'
		"0@b1;",               // missing ':I'
		"x@b1:2;",             // non-numeric thread
		"0@bx:2;",             // non-numeric block
		"0@b1:x;",             // non-numeric index
		"irq1:0@b1:2;0@b1:2;", // hint after IRQ
		"irqx:0@b1:2;",        // non-numeric IRQ
		"irq1:0@b1:2",         // unterminated IRQ
		"0@b99999999999:1;",   // block overflows int32
	} {
		if _, err := ParseKey(bad); !errors.Is(err, ErrBadKey) {
			t.Fatalf("ParseKey(%q) = %v, want ErrBadKey", bad, err)
		}
	}
	s, err := ParseKey("")
	if err != nil || s.Hints != nil || s.IRQs != nil {
		t.Fatalf("empty key: %+v, %v", s, err)
	}
}

// TestPropertyNeverFiringHintsMatchSeq pins the relaxed skip semantics:
// a schedule whose refs can never fire (block -1 exists in no kernel)
// leaves the execution identical to the sequential reference.
func TestPropertyNeverFiringHintsMatchSeq(t *testing.T) {
	k, cti := loadExecFixture(t)
	want, err := ExecuteSeq(k, cti)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 5; n++ {
		var s Schedule
		for i := 0; i <= n; i++ {
			s.Hints = append(s.Hints, Hint{
				Thread: int32(i % 2),
				Ref:    sim.InstrRef{Block: -1, Idx: int32(i)},
			})
		}
		got, err := Execute(k, cti, s)
		if err != nil {
			t.Fatal(err)
		}
		got.HintsFired = want.HintsFired // both zero; keep the check honest
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d never-firing hints changed the execution", n+1)
		}
	}
}
