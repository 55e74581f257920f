package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"snowcat/internal/xrand"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNewAndAccess(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("bad shape %+v", m)
	}
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 || m.Data[5] != 7 {
		t.Fatal("Set/At broken")
	}
	r := m.Row(1)
	r[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row is not a view")
	}
}

func TestFromData(t *testing.T) {
	m := FromData(2, 2, []float64{1, 2, 3, 4})
	if m.At(1, 0) != 3 {
		t.Fatal("FromData layout wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	FromData(2, 2, []float64{1})
}

func TestMulInto(t *testing.T) {
	a := FromData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromData(3, 2, []float64{7, 8, 9, 10, 11, 12})
	dst := New(2, 2)
	MulInto(dst, a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if !almostEq(dst.Data[i], w) {
			t.Fatalf("MulInto = %v, want %v", dst.Data, want)
		}
	}
	// MulInto overwrites previous contents.
	MulInto(dst, a, b)
	for i, w := range want {
		if !almostEq(dst.Data[i], w) {
			t.Fatal("MulInto accumulated instead of overwriting")
		}
	}
}

func TestMulAddIntoAccumulates(t *testing.T) {
	a := FromData(1, 2, []float64{1, 2})
	b := FromData(2, 1, []float64{3, 4})
	dst := New(1, 1)
	MulAddInto(dst, a, b)
	MulAddInto(dst, a, b)
	if !almostEq(dst.At(0, 0), 22) {
		t.Fatalf("got %v, want 22", dst.At(0, 0))
	}
}

func TestMulATBAddInto(t *testing.T) {
	// aᵀ·b where a is 3x2, b is 3x2 → 2x2.
	a := FromData(3, 2, []float64{1, 2, 3, 4, 5, 6})
	b := FromData(3, 2, []float64{1, 0, 0, 1, 1, 1})
	dst := New(2, 2)
	MulATBAddInto(dst, a, b)
	// aᵀ = [[1,3,5],[2,4,6]]; aᵀ·b = [[1+0+5, 0+3+5],[2+0+6, 0+4+6]]
	want := []float64{6, 8, 8, 10}
	for i, w := range want {
		if !almostEq(dst.Data[i], w) {
			t.Fatalf("MulATBAddInto = %v, want %v", dst.Data, want)
		}
	}
}

func TestMulABTAddInto(t *testing.T) {
	a := FromData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromData(2, 3, []float64{1, 1, 1, 2, 0, 1})
	dst := New(2, 2)
	MulABTAddInto(dst, a, b, make([]float64, 6))
	want := []float64{6, 5, 15, 14}
	for i, w := range want {
		if !almostEq(dst.Data[i], w) {
			t.Fatalf("MulABTAddInto = %v, want %v", dst.Data, want)
		}
	}
}

func TestMulConsistency(t *testing.T) {
	// (aᵀb) computed via MulATBAddInto must equal explicit transpose + MulInto.
	rng := xrand.New(1)
	a := New(4, 3)
	b := New(4, 5)
	a.Randomize(rng)
	b.Randomize(rng)
	viaATB := New(3, 5)
	MulATBAddInto(viaATB, a, b)
	at := New(3, 4)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	direct := New(3, 5)
	MulInto(direct, at, b)
	for i := range direct.Data {
		if !almostEq(direct.Data[i], viaATB.Data[i]) {
			t.Fatal("ATB inconsistent with explicit transpose")
		}
	}
}

func TestShapePanics(t *testing.T) {
	cases := []func(){
		func() { MulInto(New(2, 2), New(2, 3), New(2, 2)) },
		func() { MulATBAddInto(New(2, 2), New(3, 2), New(4, 2)) },
		func() { MulABTAddInto(New(2, 2), New(2, 3), New(2, 4), make([]float64, 8)) },
		func() { New(2, 2).AddRowVec([]float64{1}) },
		func() { AXPY(1, []float64{1}, []float64{1, 2}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestSigmoid(t *testing.T) {
	if !almostEq(Sigmoid(0), 0.5) {
		t.Fatal("sigmoid(0)")
	}
	if Sigmoid(100) <= 0.999 || Sigmoid(-100) >= 0.001 {
		t.Fatal("sigmoid saturation")
	}
	// Stability at extremes.
	if math.IsNaN(Sigmoid(-1000)) || math.IsNaN(Sigmoid(1000)) {
		t.Fatal("sigmoid NaN")
	}
}

func TestSigmoidSymmetry(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 500 {
			return true
		}
		return math.Abs(Sigmoid(x)+Sigmoid(-x)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestColSumInto(t *testing.T) {
	m := FromData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	dst := make([]float64, 3)
	m.ColSumInto(dst)
	want := []float64{5, 7, 9}
	for i := range want {
		if !almostEq(dst[i], want[i]) {
			t.Fatalf("colsum = %v", dst)
		}
	}
	// Accumulates.
	m.ColSumInto(dst)
	if !almostEq(dst[0], 10) {
		t.Fatal("ColSumInto should accumulate")
	}
}

func TestAddRowVec(t *testing.T) {
	m := New(2, 2)
	m.AddRowVec([]float64{1, 2})
	m.AddRowVec([]float64{1, 2})
	if m.At(0, 0) != 2 || m.At(1, 1) != 4 {
		t.Fatalf("m = %v", m.Data)
	}
}

func TestCloneIndependent(t *testing.T) {
	m := FromData(1, 2, []float64{1, 2})
	c := m.Clone()
	c.Data[0] = 9
	if m.Data[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestRandomizeDeterministic(t *testing.T) {
	a, b := New(3, 3), New(3, 3)
	a.Randomize(xrand.New(5))
	b.Randomize(xrand.New(5))
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("Randomize not deterministic")
		}
	}
	nonzero := 0
	for _, v := range a.Data {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("Randomize produced all zeros")
	}
}

func TestAXPY(t *testing.T) {
	y := []float64{1, 1}
	AXPY(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("AXPY = %v", y)
	}
}

func BenchmarkMulInto32(b *testing.B) {
	rng := xrand.New(1)
	x := New(256, 32)
	w := New(32, 32)
	dst := New(256, 32)
	x.Randomize(rng)
	w.Randomize(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulInto(dst, x, w)
	}
}

func BenchmarkMulATBAddInto32(b *testing.B) {
	rng := xrand.New(2)
	x := New(256, 32)
	g := New(256, 32)
	dst := New(32, 32)
	x.Randomize(rng)
	g.Randomize(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Zero()
		MulATBAddInto(dst, x, g)
	}
}
