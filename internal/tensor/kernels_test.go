package tensor

import (
	"fmt"
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
// (plantATB, plantABT), comparing NaN results as NaN. Then the layer
// kernel runs against its plain loop (layerTrials).
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
		layerTrials(t)
	})
}

// layerCase is one GCNLayerInto input: n×In features h, the self weights
// and bias, a destination-major index over numRel relations with each
// destination's relation bits and the per-relation norms (1/in-degree, 0
// without in-edges, and no norms at all for a relation without edges, as
// nn.RelGraph.Finalize leaves them), and weights for the first len(wrel)
// relations.
type layerCase struct {
	h, wself *Matrix
	b        []float64
	wrel     []*Matrix
	off, src []int32
	rels     []uint64
	norm     [][]float64
	numRel   int
}

func (c *layerCase) run(out *Matrix, agg []float64) {
	GCNLayerInto(out, c.h, c.wself, c.b, c.wrel, c.off, c.src, c.rels, c.norm, c.numRel, agg)
}

// randomEdges draws numRel relations' edges over n nodes, per relation
// (src, dst) pairs in insertion order. About a quarter of the relations
// have no edges; the others have a self edge added twice, so duplicate
// edges and self edges always occur.
func randomEdges(rng *xrand.RNG, n, numRel int) [][][2]int32 {
	edges := make([][][2]int32, numRel)
	for r := range edges {
		if rng.Intn(4) == 0 {
			continue
		}
		for e := rng.Intn(2*n + 1); e > 0; e-- {
			edges[r] = append(edges[r], [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))})
		}
		v := int32(rng.Intn(n))
		edges[r] = append(edges[r], [2]int32{v, v}, [2]int32{v, v})
	}
	return edges
}

// newLayerCase draws a case over randomEdges whose layer has weights for
// layerRel relations, so the layer may have fewer relations than the index
// or more (the extra ones are dropped, as nn.GCNLayer.Infer drops them).
func newLayerCase(rng *xrand.RNG, n, in, out, numRel, layerRel int) *layerCase {
	return newLayerCaseEdges(rng, n, in, out, layerRel, randomEdges(rng, n, numRel))
}

// newLayerCaseEdges draws the features and weights of a case over the
// given edges, one list per relation, and builds its index.
func newLayerCaseEdges(rng *xrand.RNG, n, in, out, layerRel int, edges [][][2]int32) *layerCase {
	numRel := len(edges)
	c := &layerCase{h: randMat(rng, n, in), wself: randMat(rng, in, out), b: randMat(rng, 1, out).Data, numRel: numRel}
	for r := 0; r < min(numRel, layerRel); r++ {
		c.wrel = append(c.wrel, randMat(rng, in, out))
	}
	c.norm = make([][]float64, numRel)
	for r := range c.norm {
		if len(edges[r]) > 0 {
			c.norm[r] = make([]float64, n)
		}
	}
	for d := int32(0); d < int32(n); d++ {
		for r := range edges {
			c.off = append(c.off, int32(len(c.src)))
			for _, e := range edges[r] {
				if e[1] == d {
					c.src = append(c.src, e[0])
				}
			}
			if deg := len(c.src) - int(c.off[len(c.off)-1]); deg > 0 {
				c.norm[r][d] = 1 / float64(deg)
			}
		}
	}
	c.off = append(c.off, int32(len(c.src)))
	c.setRels()
	return c
}

// setRels rebuilds the relation bits from the index.
func (c *layerCase) setRels() {
	n := (len(c.off) - 1) / c.numRel
	c.rels = make([]uint64, n)
	for d := range c.rels {
		for r := 0; r < c.numRel; r++ {
			if k := d*c.numRel + r; c.off[k] < c.off[k+1] {
				c.rels[d] |= 1 << r
			}
		}
	}
}

// plant sets about one element in every of h, b and each weight matrix
// to v().
func (c *layerCase) plant(rng *xrand.RNG, every int, v func() float64) {
	all := [][]float64{c.h.Data, c.b, c.wself.Data}
	for _, w := range c.wrel {
		all = append(all, w.Data)
	}
	for _, data := range all {
		for i := range data {
			if rng.Intn(every) == 0 {
				data[i] = v()
			}
		}
	}
}

// refGCNLayer is the plain loop GCNLayerInto must match: per output
// element, from +0, the self term over the nonzero coefficients in
// ascending k, the bias, then per relation with sources the gathered row
// (refGatherScaled, α = 1/count) over its nonzero coefficients, and
// max(v, 0).
func refGCNLayer(out *Matrix, c *layerCase) {
	n, in := c.h.Rows, c.h.Cols
	agg := make([]float64, in)
	for d := 0; d < n; d++ {
		for j := 0; j < out.Cols; j++ {
			acc := 0.0
			for k := 0; k < in; k++ {
				if a := c.h.At(d, k); a != 0 {
					acc += a * c.wself.At(k, j)
				}
			}
			acc += c.b[j]
			for r, w := range c.wrel {
				lo, hi := c.off[d*c.numRel+r], c.off[d*c.numRel+r+1]
				if lo == hi {
					continue
				}
				refGatherScaled(agg, 1/float64(hi-lo), c.h.Data, in, c.src[lo:hi])
				for k, a := range agg {
					if a != 0 {
						acc += a * w.At(k, j)
					}
				}
			}
			out.Set(d, j, max(acc, 0))
		}
	}
}

// NaNs with payloads, for planting: a negative quiet NaN and a signalling
// NaN of each sign.
var (
	negQNaN = math.Float64frombits(0xfff8000000000123)
	sNaN    = math.Float64frombits(0x7ff0000000000001)
	negSNaN = math.Float64frombits(0xfff0000000000005)
)

// layerTrials drives GCNLayerInto against refGCNLayer. In is 1..40, and
// past the 64-coefficient chunks every fourth trial; Out runs 1..40; up to
// 14 relations. Dirty output and aggregate buffers must not leak into the
// result. Every trial plants ±0 (−0 included) in h, b and the weights;
// one trial in three also plants one NaN (a negative quiet NaN or a
// signalling NaN), which then is the only NaN payload any sum can meet, so
// results must match bit for bit, ReLU included; and one in three plants
// ±Inf and NaNs of several payloads, with one all-zero column of h whose
// rows of the weights hold them (never multiplied, as zero coefficients
// are skipped). Where NaNs of different payloads meet, which one survives
// depends on operand order, so those results compare as NaN, but every
// NaN leaving the ReLU must have its sign cleared. A last case pins the
// ReLU on the pre-activations −1, 0, 2, −3, −0 and NaN of both signs.
func layerTrials(t *testing.T) {
	t.Helper()
	rng := xrand.New(44)
	for trial := 0; trial < 240; trial++ {
		n, in, out := 1+rng.Intn(12), 1+rng.Intn(40), 1+trial%40
		if trial%4 == 3 {
			in = 65 + rng.Intn(60)
		}
		c := newLayerCase(rng, n, in, out, 1+rng.Intn(14), 1+rng.Intn(14))
		c.plant(rng, 8, func() float64 { return signedZero(rng) })
		nan := []float64{negQNaN, sNaN, negSNaN}[rng.Intn(3)]
		switch trial % 3 {
		case 1:
			c.plant(rng, 40, func() float64 { return nan })
		case 2:
			specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), negQNaN, sNaN}
			c.plant(rng, 40, func() float64 { return specials[rng.Intn(len(specials))] })
			k := rng.Intn(in)
			for d := 0; d < n; d++ {
				c.h.Set(d, k, signedZero(rng))
			}
			for _, w := range append([]*Matrix{c.wself}, c.wrel...) {
				for j := 0; j < out; j++ {
					w.Set(k, j, specials[rng.Intn(len(specials))])
				}
			}
		}
		checkLayer(t, rng, c, trial, trial%3 == 2)
	}

	// Index shapes the random draws reach only by chance, each on fresh
	// features and at In 3, 17, 64 or 128 (a mask word's edges): half of
	// the destinations without sources; sources in relation 13 only, the
	// highest of the model's 14; sources in relations past the layer's
	// len(wrel), which the kernel must skip; and a layer with more
	// relations than the index.
	for trial := 0; trial < 48; trial++ {
		n, out := 1+rng.Intn(12), 1+rng.Intn(40)
		in := []int{3, 17, 64, 128}[trial%4]
		var c *layerCase
		switch trial / 4 % 4 {
		case 0:
			edges := randomEdges(rng, n, 1+rng.Intn(14))
			for r, es := range edges {
				kept := es[:0]
				for _, e := range es {
					if e[1]%2 == 0 {
						kept = append(kept, e)
					}
				}
				edges[r] = kept
			}
			c = newLayerCaseEdges(rng, n, in, out, 14, edges)
		case 1:
			edges := make([][][2]int32, 14)
			edges[13] = randomEdges(rng, n, 1)[0]
			for _, d := range []int32{0, int32(n - 1)} {
				edges[13] = append(edges[13], [2]int32{int32(rng.Intn(n)), d})
			}
			c = newLayerCaseEdges(rng, n, in, out, 14, edges)
		case 2:
			edges := randomEdges(rng, n, 14)
			for r := range edges {
				edges[r] = append(edges[r], [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))})
			}
			c = newLayerCaseEdges(rng, n, in, out, 1+rng.Intn(13), edges)
		case 3:
			c = newLayerCase(rng, n, in, out, 1+rng.Intn(13), 14)
		}
		c.plant(rng, 8, func() float64 { return signedZero(rng) })
		checkLayer(t, rng, c, 1000+trial, false)
	}

	// The ReLU pins: with h all zero and no edges, out is max(+0 + b, 0).
	c := newLayerCase(rng, 1, 1, 8, 1, 1)
	c.h.Data[0] = 0
	c.off, c.src, c.norm = []int32{0, 0}, nil, [][]float64{nil}
	c.setRels()
	c.b = []float64{-1, 0, 2, -3, negZero, math.Float64frombits(0x7ff8000000000001), negQNaN, sNaN}
	want := []uint64{0, 0, math.Float64bits(2), 0, 0, 0x7ff8000000000001, 0x7ff8000000000123, 0x7ff8000000000001}
	got := randMat(rng, 1, 8)
	c.run(got, make([]float64, GCNAggLen(1, 1)))
	for i, w := range want {
		if b := math.Float64bits(got.Data[i]); b != w {
			t.Fatalf("ReLU of +0 + %#x = %#x, want %#x", math.Float64bits(c.b[i]), b, w)
		}
	}
}

// checkLayer runs c on dirty output and aggregate buffers and compares it
// with refGCNLayer: bit for bit, or, with nans, NaN results as NaN, and
// no NaN may leave the ReLU with its sign set.
func checkLayer(t *testing.T, rng *xrand.RNG, c *layerCase, trial int, nans bool) {
	t.Helper()
	n, in, out := c.h.Rows, c.h.Cols, len(c.b)
	got := randMat(rng, n, out)
	agg := randMat(rng, 1, GCNAggLen(len(c.wrel), in)+rng.Intn(3)).Data
	want := New(n, out)
	c.run(got, agg)
	refGCNLayer(want, c)
	what := fmt.Sprintf("GCNLayerInto n=%d In=%d Out=%d R=%d layer R=%d", n, in, out, c.numRel, len(c.wrel))
	if !nans {
		sameBits(t, what, trial, got.Data, want.Data)
		return
	}
	sameBitsOrNaN(t, what, trial, got.Data, want.Data)
	for i, v := range got.Data {
		if math.IsNaN(v) && math.Signbit(v) {
			t.Fatalf("trial %d: %s[%d] = %#x, a NaN with its sign set left the ReLU", trial, what, i, math.Float64bits(v))
		}
	}
}

// TestHeadKernelBitEqual drives the one-column MulAddInto, the product of
// the prediction heads, against mulAddRowGo row by row, on both paths:
// 1-9 rows, so every group of 4 and every 1-3 row tail; In 1..40 and past
// 64. Trials plant, in turn: ±0 coefficients in front of ±Inf and NaN
// weights (never multiplied); rows whose coefficients are all ±0 in front
// of −0 and a signalling NaN in dst, which must keep their bits; one NaN
// payload (a negative quiet or a signalling NaN) anywhere in a, b or dst,
// so every NaN result is that payload and compares bit for bit; and −0
// weights under positive coefficients behind ±0 ones, on a −0 dst, whose
// sum stays −0 only if a skipped coefficient adds nothing but −0.
func TestHeadKernelBitEqual(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		rng := xrand.New(46)
		for trial := 0; trial < 480; trial++ {
			n, k := 1+trial%9, 1+trial/9%40
			if trial%5 == 4 {
				k = 65 + rng.Intn(80)
			}
			a, b, dst := randMat(rng, n, k), randMat(rng, k, 1), randMat(rng, n, 1)
			plantNegZeros(rng, dst)
			switch trial % 4 {
			case 3:
				for i := range b.Data {
					b.Data[i] = negZero
				}
				for i, v := range a.Data {
					a.Data[i] = math.Abs(v)
				}
				for i := 0; i < n; i++ {
					a.Set(i, 0, signedZero(rng))
					dst.Data[i] = negZero
				}
			case 0:
				specials := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
				for z := rng.Intn(3); z >= 0; z-- {
					col := rng.Intn(k)
					for i := 0; i < n; i++ {
						a.Set(i, col, signedZero(rng))
					}
					b.Data[col] = specials[rng.Intn(len(specials))]
				}
			case 1:
				i := rng.Intn(n)
				for col := 0; col < k; col++ {
					a.Set(i, col, signedZero(rng))
				}
				dst.Data[i] = []float64{negZero, sNaN, negSNaN}[rng.Intn(3)]
				if j := rng.Intn(n); j != i && rng.Intn(2) == 0 {
					for col := 0; col < k; col++ {
						a.Set(j, col, signedZero(rng))
					}
					dst.Data[j] = sNaN
				}
			case 2:
				nan := []float64{negQNaN, sNaN, negSNaN}[rng.Intn(3)]
				switch all := [][]float64{a.Data, b.Data, dst.Data}[rng.Intn(3)]; rng.Intn(2) {
				case 0:
					all[rng.Intn(len(all))] = nan
				default:
					for i := range all {
						if rng.Intn(6) == 0 {
							all[i] = nan
						}
					}
				}
			}
			want := dst.Clone()
			for i := 0; i < n; i++ {
				mulAddRowGo(want.Data[i:i+1], a.Row(i), b.Data, 1)
			}
			MulAddInto(dst, a, b)
			sameBits(t, fmt.Sprintf("one-column MulAddInto n=%d In=%d", n, k), trial, dst.Data, want.Data)
		}
	})
}

// shortLayer is a well-formed 3-node, 16-wide, two-relation case for the
// shape checks to break one piece of.
func shortLayer() *layerCase {
	return newLayerCase(xrand.New(1), 3, 16, 16, 2, 2)
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
		{"h in GCNLayerInto", func() {
			c := shortLayer()
			c.h.Data = short(48)
			c.run(New(3, 16), make([]float64, GCNAggLen(2, 16)))
		}},
		{"out in GCNLayerInto", func() {
			shortLayer().run(&Matrix{Rows: 3, Cols: 16, Data: short(48)}, make([]float64, GCNAggLen(2, 16)))
		}},
		{"wself in GCNLayerInto", func() {
			c := shortLayer()
			c.wself.Data = short(256)
			c.run(New(3, 16), make([]float64, GCNAggLen(2, 16)))
		}},
		{"b in GCNLayerInto", func() {
			c := shortLayer()
			c.b = short(16)
			c.run(New(3, 16), make([]float64, GCNAggLen(2, 16)))
		}},
		{"wrel in GCNLayerInto", func() {
			c := shortLayer()
			c.wrel[1] = &Matrix{Rows: 16, Cols: 16, Data: short(256)}
			c.run(New(3, 16), make([]float64, GCNAggLen(2, 16)))
		}},
		{"off in GCNLayerInto", func() {
			c := shortLayer()
			c.off = c.off[:len(c.off)-1]
			c.run(New(3, 16), make([]float64, GCNAggLen(2, 16)))
		}},
		{"src in GCNLayerInto", func() {
			c := shortLayer()
			c.src = c.src[:len(c.src)-1]
			c.run(New(3, 16), make([]float64, GCNAggLen(2, 16)))
		}},
		{"norm in GCNLayerInto", func() {
			c := shortLayer()
			c.norm[1] = short(3)
			c.run(New(3, 16), make([]float64, GCNAggLen(2, 16)))
		}},
		{"norms in GCNLayerInto", func() {
			c := shortLayer()
			c.norm = c.norm[:1]
			c.run(New(3, 16), make([]float64, GCNAggLen(2, 16)))
		}},
		{"agg in GCNLayerInto", func() { shortLayer().run(New(3, 16), short(GCNAggLen(2, 16))) }},
		{"relations in GCNLayerInto", func() {
			c := shortLayer()
			c.wrel = append(c.wrel, New(16, 16))
			c.norm = append(c.norm, make([]float64, 3))
			c.run(New(3, 16), make([]float64, GCNAggLen(3, 16)))
		}},
		{"rels in GCNLayerInto", func() {
			c := shortLayer()
			c.rels = c.rels[:2]
			c.run(New(3, 16), make([]float64, GCNAggLen(2, 16)))
		}},
		{"norm of a relation with sources in GCNLayerInto", func() {
			c := shortLayer()
			c.norm[0] = nil
			c.run(New(3, 16), make([]float64, GCNAggLen(2, 16)))
		}},
		{"65 relations in GCNLayerInto", func() {
			newLayerCase(xrand.New(1), 3, 16, 16, 65, 2).run(New(3, 16), make([]float64, GCNAggLen(2, 16)))
		}},
		{"b in MulAddInto", func() {
			MulAddInto(New(2, 20), New(2, 3), &Matrix{Rows: 3, Cols: 20, Data: short(60)})
		}},
		{"a in MulAddInto", func() {
			MulAddInto(New(2, 20), &Matrix{Rows: 2, Cols: 3, Data: short(6)}, New(3, 20))
		}},
		{"dst in MulAddInto", func() {
			MulAddInto(&Matrix{Rows: 2, Cols: 20, Data: short(40)}, New(2, 3), New(3, 20))
		}},
		{"a in the one-column MulAddInto", func() {
			MulAddInto(New(5, 1), &Matrix{Rows: 5, Cols: 16, Data: short(80)}, New(16, 1))
		}},
		{"b in the one-column MulAddInto", func() {
			MulAddInto(New(5, 1), New(5, 16), &Matrix{Rows: 16, Cols: 1, Data: short(16)})
		}},
		{"dst in the one-column MulAddInto", func() {
			MulAddInto(&Matrix{Rows: 5, Cols: 1, Data: short(5)}, New(5, 16), New(16, 1))
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
