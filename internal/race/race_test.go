package race

import (
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"snowcat/internal/kernel"
	"snowcat/internal/sim"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
	"snowcat/internal/xrand"
)

// result builds a synthetic ski.Result with the given accesses.
func result(a0, a1 []syz.Access) *ski.Result {
	r := &ski.Result{}
	r.Accesses[0] = a0
	r.Accesses[1] = a1
	return r
}

func acc(block, idx, addr int32, write bool, lockset uint64) syz.Access {
	return syz.Access{
		Ref: sim.InstrRef{Block: block, Idx: idx}, Write: write,
		Addr: addr, Lockset: lockset,
	}
}

func TestDetectWriteWrite(t *testing.T) {
	races := Detect(result(
		[]syz.Access{acc(1, 0, 5, true, 0)},
		[]syz.Access{acc(2, 0, 5, true, 0)},
	))
	if len(races) != 1 {
		t.Fatalf("races = %d, want 1", len(races))
	}
	if races[0].Addr != 5 {
		t.Errorf("race addr = %d", races[0].Addr)
	}
}

func TestDetectReadWrite(t *testing.T) {
	races := Detect(result(
		[]syz.Access{acc(1, 0, 5, false, 0)},
		[]syz.Access{acc(2, 0, 5, true, 0)},
	))
	if len(races) != 1 {
		t.Fatalf("read-write should race, got %d", len(races))
	}
}

func TestDetectReadReadIgnored(t *testing.T) {
	races := Detect(result(
		[]syz.Access{acc(1, 0, 5, false, 0)},
		[]syz.Access{acc(2, 0, 5, false, 0)},
	))
	if len(races) != 0 {
		t.Fatalf("read-read raced: %v", races)
	}
}

func TestDetectDifferentAddressesIgnored(t *testing.T) {
	races := Detect(result(
		[]syz.Access{acc(1, 0, 5, true, 0)},
		[]syz.Access{acc(2, 0, 6, true, 0)},
	))
	if len(races) != 0 {
		t.Fatalf("different addresses raced: %v", races)
	}
}

func TestDetectCommonLockSuppresses(t *testing.T) {
	races := Detect(result(
		[]syz.Access{acc(1, 0, 5, true, 0b01)},
		[]syz.Access{acc(2, 0, 5, true, 0b01)},
	))
	if len(races) != 0 {
		t.Fatalf("lock-protected accesses raced: %v", races)
	}
	// Disjoint locksets do race.
	races = Detect(result(
		[]syz.Access{acc(1, 0, 5, true, 0b01)},
		[]syz.Access{acc(2, 0, 5, true, 0b10)},
	))
	if len(races) != 1 {
		t.Fatalf("disjoint locksets should race, got %d", len(races))
	}
}

func TestDetectDeduplicates(t *testing.T) {
	// The same static pair appearing many times dynamically counts once.
	a := []syz.Access{acc(1, 0, 5, true, 0), acc(1, 0, 5, true, 0)}
	b := []syz.Access{acc(2, 0, 5, true, 0), acc(2, 0, 5, true, 0)}
	races := Detect(result(a, b))
	if len(races) != 1 {
		t.Fatalf("races = %d, want 1 after dedup", len(races))
	}
}

func TestCanonicalOrder(t *testing.T) {
	r1 := Detect(result(
		[]syz.Access{acc(9, 0, 5, true, 0)},
		[]syz.Access{acc(2, 0, 5, true, 0)},
	))
	r2 := Detect(result(
		[]syz.Access{acc(2, 0, 5, true, 0)},
		[]syz.Access{acc(9, 0, 5, true, 0)},
	))
	if r1[0].Key() != r2[0].Key() {
		t.Fatalf("race keys not canonical: %s vs %s", r1[0].Key(), r2[0].Key())
	}
	if r1[0].A.Block != 2 {
		t.Errorf("canonical A should be smaller ref, got %v", r1[0].A)
	}
}

func TestDetectDeterministicOrder(t *testing.T) {
	a := []syz.Access{acc(1, 0, 5, true, 0), acc(3, 1, 7, true, 0), acc(5, 0, 5, true, 0)}
	b := []syz.Access{acc(2, 0, 5, true, 0), acc(4, 0, 7, true, 0)}
	r1 := Detect(result(a, b))
	r2 := Detect(result(a, b))
	if len(r1) != len(r2) {
		t.Fatal("lengths differ")
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("order not deterministic")
		}
	}
	for i := 1; i < len(r1); i++ {
		if r1[i].Key() == r1[i-1].Key() {
			t.Fatal("duplicate in output")
		}
	}
}

func TestSetAccumulates(t *testing.T) {
	s := NewSet()
	r1 := Race{A: sim.InstrRef{Block: 1}, B: sim.InstrRef{Block: 2}, Addr: 5}
	r2 := Race{A: sim.InstrRef{Block: 3}, B: sim.InstrRef{Block: 4}, Addr: 6}
	if n := s.Add([]Race{r1, r2}); n != 2 {
		t.Fatalf("first add = %d, want 2", n)
	}
	if n := s.Add([]Race{r1}); n != 0 {
		t.Fatalf("re-add = %d, want 0", n)
	}
	if s.Size() != 2 {
		t.Fatalf("size = %d", s.Size())
	}
	if !s.Has(r1) || s.Has(Race{Addr: 99}) {
		t.Fatal("Has misbehaves")
	}
}

func TestEndToEndRacesOnGeneratedKernel(t *testing.T) {
	// Run random CTIs on a generated kernel: the dishonest-lock functions
	// guarantee some potential races exist.
	k := kernel.Generate(kernel.SmallConfig(21))
	g := syz.NewGenerator(k, 22)
	set := NewSet()
	for i := 0; i < 40; i++ {
		a, b := g.Generate(), g.Generate()
		cti := ski.CTI{ID: int64(i), A: a, B: b}
		pa, err := syz.Run(k, a)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := syz.Run(k, b)
		if err != nil {
			t.Fatal(err)
		}
		s := ski.NewSampler(pa, pb, uint64(i))
		res, err := ski.Execute(k, cti, s.Next())
		if err != nil {
			t.Fatal(err)
		}
		set.Add(Detect(res))
	}
	if set.Size() == 0 {
		t.Fatal("no potential races found across 40 concurrent executions")
	}
}

func TestRaceStringAndKey(t *testing.T) {
	r := Race{A: sim.InstrRef{Block: 1, Idx: 2}, B: sim.InstrRef{Block: 3, Idx: 4}, Addr: 9}
	if r.Key() != "b1:2|b3:4|g9" {
		t.Errorf("Key() = %q", r.Key())
	}
	if r.String() == "" {
		t.Error("empty String()")
	}
}

func TestPropertyDetectionThreadSymmetric(t *testing.T) {
	// Swapping the two threads' traces must yield exactly the same race
	// set: the pair canonicalisation guarantees it.
	f := func(raw []uint8) bool {
		var a0, a1 []syz.Access
		step := 0
		for i := 0; i+3 < len(raw) && i < 60; i += 4 {
			step += int(raw[i+3]%7) + 1
			acc := syz.Access{
				Ref:     sim.InstrRef{Block: int32(raw[i] % 16), Idx: int32(raw[i+1] % 4)},
				Write:   raw[i+2]%2 == 0,
				Addr:    int32(raw[i+2] % 5),
				Lockset: uint64(raw[i+3] % 4),
				Step:    step,
			}
			if raw[i]%2 == 0 {
				a0 = append(a0, acc)
			} else {
				a1 = append(a1, acc)
			}
		}
		r1 := Detect(result(a0, a1))
		r2 := Detect(result(a1, a0))
		if len(r1) != len(r2) {
			return false
		}
		for i := range r1 {
			if r1[i] != r2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowMonotone(t *testing.T) {
	// A larger window can only find more races.
	a := []syz.Access{
		acc2(1, 5, true, 0, 10),
		acc2(3, 7, true, 0, 200),
	}
	b := []syz.Access{
		acc2(2, 5, false, 0, 60),
		acc2(4, 7, false, 0, 500),
	}
	res := result(a, b)
	small := len(DetectWindow(res, 10))
	mid := len(DetectWindow(res, 100))
	unbounded := len(DetectWindow(res, 0))
	if small > mid || mid > unbounded {
		t.Fatalf("window monotonicity violated: %d %d %d", small, mid, unbounded)
	}
	if unbounded != 2 || mid != 1 || small != 0 {
		t.Fatalf("expected 0/1/2, got %d/%d/%d", small, mid, unbounded)
	}
}

func acc2(block, addr int32, write bool, lockset uint64, step int) syz.Access {
	return syz.Access{
		Ref: sim.InstrRef{Block: block}, Write: write,
		Addr: addr, Lockset: lockset, Step: step,
	}
}

// referenceDetectWindow is DetectWindow as it stood before the windowed
// sweep, copied verbatim (with its refLess helper): the per-call address
// map and string-keyed dedup the sweep replaced. The tests below pin the
// sweep to it bit for bit, nil-ness included.
func referenceDetectWindow(res *ski.Result, window int) []Race {
	// Bucket thread-0 accesses by address to avoid the full cross product.
	byAddr := make(map[int32][]syz.Access)
	for _, a := range res.Accesses[0] {
		byAddr[a.Addr] = append(byAddr[a.Addr], a)
	}
	seen := make(map[string]bool)
	var out []Race
	for _, b := range res.Accesses[1] {
		for _, a := range byAddr[b.Addr] {
			if !a.Write && !b.Write {
				continue // read-read never races
			}
			if a.Lockset&b.Lockset != 0 {
				continue // common lock orders the accesses
			}
			if window > 0 {
				d := a.Step - b.Step
				if d < 0 {
					d = -d
				}
				if d > window {
					continue // not temporally overlapping
				}
			}
			r := canonical(a.Ref, b.Ref, b.Addr)
			if k := r.Key(); !seen[k] {
				seen[k] = true
				out = append(out, r)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return refLess(out[i].A, out[j].A)
		}
		if out[i].B != out[j].B {
			return refLess(out[i].B, out[j].B)
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

func refLess(a, b sim.InstrRef) bool {
	if a.Block != b.Block {
		return a.Block < b.Block
	}
	return a.Idx < b.Idx
}

var referenceWindows = []int{-1, 0, 1, 10, 80, 1000}

// randomLog draws n accesses over few blocks, addresses and locks, so
// collisions, read/read pairs and overlapping locksets are common. order
// picks the Step pattern: 0 strictly ascending, 1 ascending with repeated
// values, 2 shuffled, 3 all equal.
func randomLog(rng *xrand.RNG, n, order int) []syz.Access {
	if n == 0 && rng.Intn(2) == 0 {
		return nil
	}
	log := make([]syz.Access, n)
	step := rng.Intn(50)
	for i := range log {
		switch order {
		case 0, 2:
			step += 1 + rng.Intn(30)
		case 1:
			step += rng.Intn(3)
		}
		log[i] = syz.Access{
			Ref:     sim.InstrRef{Block: int32(rng.Intn(6)), Idx: int32(rng.Intn(3))},
			Write:   rng.Intn(3) == 0,
			Addr:    int32(rng.Intn(4)),
			Value:   int64(rng.Intn(5)),
			Lockset: uint64(rng.Intn(8)),
			Step:    step,
		}
	}
	if order == 2 {
		for i := len(log) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			log[i], log[j] = log[j], log[i]
		}
	}
	return log
}

// TestDetectMatchesReferenceOnRandomLogs pins the sweep to the reference
// over random logs in and out of Step order, at every window shape:
// unbounded (-1, 0), tight, the default and wider than any log.
func TestDetectMatchesReferenceOnRandomLogs(t *testing.T) {
	rng := xrand.New(17)
	for c := 0; c < 4000; c++ {
		res := result(
			randomLog(rng, rng.Intn(40), rng.Intn(4)),
			randomLog(rng, rng.Intn(40), rng.Intn(4)),
		)
		for _, w := range referenceWindows {
			got, want := DetectWindow(res, w), referenceDetectWindow(res, w)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d window %d:\n got %v\nwant %v\nlogs %v\n     %v",
					c, w, got, want, res.Accesses[0], res.Accesses[1])
			}
		}
	}
}

// detectFixture executes sampled schedules of CTIs on the campaign kernel
// (kernel.DefaultConfig(11)), the executions the race detector sees in a
// plain-PCT campaign.
var detectFixture struct {
	once sync.Once
	res  []*ski.Result
	err  error
}

func loadDetectFixture(tb testing.TB) []*ski.Result {
	detectFixture.once.Do(func() {
		k := kernel.Generate(kernel.DefaultConfig(11))
		g := syz.NewGenerator(k, 12)
		for i := 0; i < 12; i++ {
			cti := ski.CTI{ID: int64(i), A: g.Generate(), B: g.Generate()}
			pa, err := syz.Run(k, cti.A)
			if err != nil {
				detectFixture.err = err
				return
			}
			pb, err := syz.Run(k, cti.B)
			if err != nil {
				detectFixture.err = err
				return
			}
			s := ski.NewSampler(pa, pb, uint64(i))
			for j := 0; j < 4; j++ {
				res, err := ski.Execute(k, cti, s.Next())
				if err != nil {
					detectFixture.err = err
					return
				}
				detectFixture.res = append(detectFixture.res, res)
			}
		}
	})
	if detectFixture.err != nil {
		tb.Fatal(detectFixture.err)
	}
	return detectFixture.res
}

func TestDetectMatchesReferenceOnExecutions(t *testing.T) {
	found := 0
	for i, res := range loadDetectFixture(t) {
		for _, w := range referenceWindows {
			got, want := DetectWindow(res, w), referenceDetectWindow(res, w)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("execution %d window %d: got %d races, want %d", i, w, len(got), len(want))
			}
			found += len(got)
		}
	}
	if found == 0 {
		t.Fatal("fixture executions found no races: the comparison is vacuous")
	}
}

// BenchmarkDetect runs the default-window detector over executions of the
// campaign kernel, one execution per op.
func BenchmarkDetect(b *testing.B) {
	res := loadDetectFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Detect(res[i%len(res)])
	}
}
