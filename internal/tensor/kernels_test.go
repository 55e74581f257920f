package tensor

import (
	"math"
	"strings"
	"testing"

	"snowcat/internal/xrand"
)

// Reference implementations: the plain loops the optimised kernels
// replaced. The hot-path invariant is bit-equality, not tolerance — the
// blocked Go kernels and the AVX2 assembly must accumulate each element in
// the identical float64 op order.

func refMulAddInto(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			aik := a.At(i, k)
			if aik == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				dst.Set(i, j, dst.At(i, j)+aik*b.At(k, j))
			}
		}
	}
}

func refMulATBAddInto(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.At(i, k)
			if av == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				dst.Set(k, j, dst.At(k, j)+av*b.At(i, j))
			}
		}
	}
}

func refMulABTAddInto(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			dst.Set(i, j, dst.At(i, j)+s)
		}
	}
}

func refGatherScaled(dst []float64, alpha float64, hd []float64, dim int, srcs []int32) {
	for j := range dst {
		dst[j] = 0
	}
	for _, s := range srcs {
		for j := range dst {
			dst[j] += alpha * hd[int(s)*dim+j]
		}
	}
}

func refAXPY(alpha float64, x, y []float64) {
	for i, v := range x {
		y[i] += alpha * v
	}
}

func randMat(rng *xrand.RNG, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		// Mix in exact zeros to exercise the zero-skip branches.
		if rng.Intn(5) == 0 {
			continue
		}
		m.Data[i] = rng.Float64()*2 - 1
	}
	return m
}

var negZero = math.Copysign(0, -1)

// signedZero returns +0 or −0 with equal odds.
func signedZero(rng *xrand.RNG) float64 {
	if rng.Intn(2) == 0 {
		return negZero
	}
	return 0
}

// plantNegZeros sets about a quarter of dst's elements to −0.
func plantNegZeros(rng *xrand.RNG, dst *Matrix) {
	for i := range dst.Data {
		if rng.Intn(4) == 0 {
			dst.Data[i] = negZero
		}
	}
}

// plantEdges seeds the values the zero skip must handle exactly like the
// scalar test does: −0 in the destination, one row and one column of the
// coefficients a set to ±0 (so that row of dst must keep its −0 entries),
// ±Inf and NaN in the row of b behind the zero column (never multiplied),
// and at most one NaN coefficient elsewhere (not skipped). All NaNs share
// math.NaN's payload, so bit comparison stays meaningful.
func plantEdges(rng *xrand.RNG, a, b, dst *Matrix) {
	plantNegZeros(rng, dst)
	zr, zc := rng.Intn(a.Rows), rng.Intn(a.Cols)
	for j := 0; j < a.Cols; j++ {
		a.Set(zr, j, signedZero(rng))
	}
	for i := 0; i < a.Rows; i++ {
		a.Set(i, zc, signedZero(rng))
	}
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for j := 0; j < b.Cols; j++ {
		b.Set(zc, j, specials[rng.Intn(len(specials))])
	}
	if i, k := rng.Intn(a.Rows), rng.Intn(a.Cols); i != zr && k != zc && rng.Intn(2) == 0 {
		a.Set(i, k, math.NaN())
	}
}

// plantATB seeds an aᵀ·b case (a is n×r, b is n×c, dst is r×c) with the
// values MulATBAddInto's zero skip must handle: −0 in dst; one column of
// a set to ±0, so that row of dst keeps its −0 entries; and one row of b
// made of ±Inf and NaN behind a row of a that is mostly ±0, so the skipped
// products would be NaN if they were taken, while the row's nonzero
// coefficients carry ±Inf and NaN into dst legitimately. At most one NaN
// coefficient elsewhere is kept, as the scalar av == 0 test keeps it.
func plantATB(rng *xrand.RNG, a, b, dst *Matrix) {
	plantNegZeros(rng, dst)
	zi, zc := rng.Intn(a.Rows), rng.Intn(a.Cols)
	for i := 0; i < a.Rows; i++ {
		a.Set(i, zc, signedZero(rng))
	}
	for k := 0; k < a.Cols; k++ {
		if rng.Intn(4) != 0 {
			a.Set(zi, k, signedZero(rng))
		}
	}
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for j := 0; j < b.Cols; j++ {
		b.Set(zi, j, specials[rng.Intn(len(specials))])
	}
	if i, k := rng.Intn(a.Rows), rng.Intn(a.Cols); i != zi && k != zc && rng.Intn(2) == 0 {
		a.Set(i, k, math.NaN())
	}
}

// plantABT seeds an a·bᵀ case (a is n×c, b is m×c, dst is n×m) where
// ±Inf meets 0 on both sides: MulABTAddInto skips no coefficient, so a
// zero times ±Inf must give NaN, whichever operand holds the zero. It
// also puts −0 in dst and −0 among the operands.
func plantABT(rng *xrand.RNG, a, b, dst *Matrix) {
	plantNegZeros(rng, dst)
	for _, m := range []*Matrix{a, b} {
		for i := range m.Data {
			switch rng.Intn(8) {
			case 0:
				m.Data[i] = 0
			case 1:
				m.Data[i] = negZero
			case 2:
				m.Data[i] = math.Inf(1 - 2*rng.Intn(2))
			}
		}
	}
	// One guaranteed meeting each way: a's Inf against b's zero, and a's
	// zero against b's Inf, in the same column k.
	i, j, k := rng.Intn(a.Rows), rng.Intn(b.Rows), rng.Intn(a.Cols)
	a.Set(i, k, math.Inf(-1))
	b.Set(j, k, negZero)
	if a.Rows > 1 && b.Rows > 1 {
		a.Set((i+1)%a.Rows, k, 0)
		b.Set((j+1)%b.Rows, k, math.Inf(1))
	}
}

// onBothPaths runs f on the kernels selected at start-up (the AVX2
// assembly on a CPU that has it) and again with the scalar Go kernels
// forced.
func onBothPaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	simd := useAVX2
	if !simd {
		t.Log("AVX2 kernels not selected in this build or on this CPU: both runs use the scalar kernels")
	}
	defer func() { useAVX2 = simd }()
	for _, path := range []struct {
		name string
		avx2 bool
	}{{"simd", simd}, {"scalar", false}} {
		useAVX2 = path.avx2
		t.Run(path.name, f)
	}
}

// sameBits fails unless got and want are bit-identical, which also tells
// −0 from +0 (== does not).
func sameBits(t *testing.T, what string, trial int, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("trial %d: %s[%d] = %v (%#x), reference %v (%#x)",
				trial, what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// sameBitsOrNaN is sameBits for results that may be NaN: a NaN reference
// element needs a NaN result, with any payload (which NaN survives when two
// meet depends on operand order; DESIGN.md §6.1), and every other element
// must match bit for bit, −0 included.
func sameBitsOrNaN(t *testing.T, what string, trial int, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.IsNaN(want[i]) && math.IsNaN(got[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("trial %d: %s[%d] = %v (%#x), reference %v (%#x)",
				trial, what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestKernelsBitEqualReference drives the row kernels and the matmuls
// built on them against the reference loops and requires bit-identical
// output, on the AVX2 and the scalar path. Widths run 1..40: the 16-, 8-
// and 4-column blocks of the assembly, the 8-column blocks of the Go
// kernels, and every 1..3 column tail. Odd trials plant −0, ±Inf and NaN
// edge values in the MulAddInto operands (plantEdges), and every trial
// runs MulATBAddInto and MulABTAddInto a second time on planted operands
// (plantATB, plantABT), comparing NaN results as NaN.
func TestKernelsBitEqualReference(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		rng := xrand.New(42)
		prng := xrand.New(43) // the planted AᵀB/ABᵀ variants' own stream
		for trial := 0; trial < 320; trial++ {
			p := 1 + trial/2%40
			n := 1 + rng.Intn(9)
			k := 1 + rng.Intn(12)
			if trial%8 >= 6 {
				// Past the assembly's 64-coefficient chunks.
				k = 60 + rng.Intn(80)
			}

			a := randMat(rng, n, k)
			b := randMat(rng, k, p)
			got := randMat(rng, n, p)
			if trial%2 == 1 {
				plantEdges(rng, a, b, got)
			}
			want := got.Clone()
			MulAddInto(got, a, b)
			refMulAddInto(want, a, b)
			sameBits(t, "MulAddInto", trial, got.Data, want.Data)

			// MulAddRowInto against the matrix kernel: scoring row i of a via
			// the row-granular entry point must be bit-identical.
			rowGot := want.Clone()
			for i := 0; i < n; i++ {
				MulAddRowInto(rowGot.Row(i), a.Row(i), b)
			}
			MulAddInto(want, a, b)
			sameBits(t, "MulAddRowInto", trial, rowGot.Data, want.Data)

			at := randMat(rng, n, k) // aᵀ·b: a is n×k, b is n×p, dst k×p
			bt := randMat(rng, n, p)
			got2 := randMat(rng, k, p)
			want2 := got2.Clone()
			MulATBAddInto(got2, at, bt)
			refMulATBAddInto(want2, at, bt)
			sameBits(t, "MulATBAddInto", trial, got2.Data, want2.Data)

			ab := randMat(rng, n, k) // a·bᵀ: a is n×k, b is p×k, dst n×p
			bb := randMat(rng, p, k)
			got3 := randMat(rng, n, p)
			want3 := got3.Clone()
			bT := randMat(prng, k+1, p).Data // stale scratch with spare room
			MulABTAddInto(got3, ab, bb, bT)
			refMulABTAddInto(want3, ab, bb)
			sameBits(t, "MulABTAddInto", trial, got3.Data, want3.Data)

			// The same two products with planted edge values.
			at, bt, got2 = randMat(prng, n, k), randMat(prng, n, p), randMat(prng, k, p)
			plantATB(prng, at, bt, got2)
			want2 = got2.Clone()
			MulATBAddInto(got2, at, bt)
			refMulATBAddInto(want2, at, bt)
			sameBitsOrNaN(t, "planted MulATBAddInto", trial, got2.Data, want2.Data)
			ab, bb, got3 = randMat(prng, n, k), randMat(prng, p, k), randMat(prng, n, p)
			plantABT(prng, ab, bb, got3)
			want3 = got3.Clone()
			MulABTAddInto(got3, ab, bb, bT)
			refMulABTAddInto(want3, ab, bb)
			sameBitsOrNaN(t, "planted MulABTAddInto", trial, got3.Data, want3.Data)

			// axpyRow against the plain loop at width p, with −0 in y.
			alpha := rng.Float64()*2 - 1
			x := randMat(rng, 1, p).Data
			y := randMat(rng, 1, p).Data
			y[rng.Intn(p)] = negZero
			yWant := append([]float64(nil), y...)
			axpyRow(alpha, x, y)
			refAXPY(alpha, x, yWant)
			sameBits(t, "axpyRow", trial, y, yWant)

			// GatherScaledInto against a zeroed buffer accumulated by the
			// plain loop — the GCN gather contract — over p columns of rows
			// that may be wider than p.
			dim := p + rng.Intn(3)
			hd := randMat(rng, n, dim)
			hd.Data[rng.Intn(len(hd.Data))] = negZero
			srcs := make([]int32, rng.Intn(6))
			for i := range srcs {
				srcs[i] = int32(rng.Intn(n))
			}
			galpha := rng.Float64()*2 - 1
			gGot := randMat(rng, 1, p).Data // overwritten: GatherScaledInto assigns
			gWant := make([]float64, p)
			GatherScaledInto(gGot, galpha, hd.Data, dim, srcs)
			refGatherScaled(gWant, galpha, hd.Data, dim, srcs)
			sameBits(t, "GatherScaledInto", trial, gGot, gWant)
		}
	})
}

// TestKernelsPanicOnShortSlices checks that the Go wrappers reject a slice
// too short for its shape before any kernel reads it, on both paths. The
// short slices keep spare capacity, so only a length check catches them.
func TestKernelsPanicOnShortSlices(t *testing.T) {
	short := func(n int) []float64 { return make([]float64, n-1, n+8) }
	cases := []struct {
		name string
		f    func()
	}{
		{"b in MulAddRowInto", func() {
			MulAddRowInto(make([]float64, 16), make([]float64, 3), &Matrix{Rows: 3, Cols: 16, Data: short(48)})
		}},
		{"b in MulAddInto", func() {
			MulAddInto(New(2, 20), New(2, 3), &Matrix{Rows: 3, Cols: 20, Data: short(60)})
		}},
		{"b in MulATBAddRowInto", func() {
			MulATBAddRowInto(New(3, 16), make([]float64, 3), short(16))
		}},
		{"dst in MulATBAddRowInto", func() {
			MulATBAddRowInto(&Matrix{Rows: 3, Cols: 16, Data: short(48)}, make([]float64, 3), make([]float64, 16))
		}},
		{"bt in MulABTAddRowInto", func() {
			MulABTAddRowInto(make([]float64, 16), make([]float64, 3), short(48))
		}},
		{"dst in TransposeInto", func() { TransposeInto(short(48), New(16, 3)) }},
		{"bt in MulABTAddInto", func() { MulABTAddInto(New(2, 16), New(2, 3), New(16, 3), short(48)) }},
		{"hd last row", func() {
			GatherScaledInto(make([]float64, 16), 1, short(32), 16, []int32{0, 1})
		}},
		{"hd negative row", func() {
			GatherScaledInto(make([]float64, 16), 1, make([]float64, 32), 16, []int32{-1})
		}},
		{"x", func() { axpyRow(1, short(16), make([]float64, 16)) }},
		{"y", func() { axpyRow(1, make([]float64, 16), short(16)) }},
	}
	onBothPaths(t, func(t *testing.T) {
		for _, c := range cases {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.HasPrefix(msg, "tensor: ") {
						t.Errorf("%s: recovered %q, want a tensor shape panic", c.name, msg)
					}
				}()
				c.f()
			}()
		}
	})
}
