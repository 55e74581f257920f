// Package tensor provides the small dense linear-algebra core used by the
// neural-network substrate.
//
// Matrices are row-major float64 with explicit dimensions. The operations
// are exactly the ones the PIC model's forward and backward passes need:
// matrix products in the three orientations (AB, AᵀB, ABᵀ), row/column
// reductions, and elementwise maps. Everything is allocation-explicit so
// training loops can reuse buffers.
package tensor

import (
	"fmt"
	"math"

	"snowcat/internal/xrand"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New allocates a zeroed Rows×Cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dims %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromData wraps data (not copied) as a Rows×Cols matrix.
func FromData(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set writes element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero clears all elements.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Randomize fills m with Glorot-style uniform noise scaled by the fan-in
// and fan-out, using the deterministic rng.
func (m *Matrix) Randomize(rng *xrand.RNG) {
	scale := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * scale
	}
}

// AddRowVec adds vector v (length Cols) to every row of m.
func (m *Matrix) AddRowVec(v []float64) {
	if len(v) != m.Cols {
		panic("tensor: AddRowVec length mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)[:len(v)]
		for j, x := range v {
			row[j] += x
		}
	}
}

// ColSumInto accumulates the column sums of m into dst (length Cols).
func (m *Matrix) ColSumInto(dst []float64) {
	if len(dst) != m.Cols {
		panic("tensor: ColSumInto length mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		dst := dst[:len(row)]
		for j, x := range row {
			dst[j] += x
		}
	}
}

// MulInto computes dst = a·b. dst must be a.Rows×b.Cols and distinct from
// both operands; it is overwritten.
func MulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MulInto shapes %dx%d · %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dst.Zero()
	MulAddInto(dst, a, b)
}

// MulAddInto computes dst += a·b with the ikj loop order for cache
// friendliness. Each row of dst is produced by mulAddRow, or, when b has
// one column (the prediction heads), by mulAddCol; every dst element
// receives exactly one accumulate per nonzero coefficient, in ascending k
// order, so the result is bit-identical to the plain triple loop.
func MulAddInto(dst, a, b *Matrix) {
	n, k2, p := a.Rows, a.Cols, b.Cols
	ad, bd, dd := a.Data, b.Data, dst.Data
	if b.Rows != k2 || dst.Rows != n || dst.Cols != p || len(dd) != n*p || len(ad) != n*k2 || len(bd) != k2*p {
		panic("tensor: MulAddInto shape mismatch")
	}
	if p == 1 {
		mulAddCol(dd, ad, bd)
		return
	}
	for i := 0; i < n; i++ {
		mulAddRow(dd[i*p:i*p+p], ad[i*k2:i*k2+k2], bd, p)
	}
}

// mulAddCol computes dst += a·b for a one-column b: dst[i] += a_i·b, where
// row i of a is ad[i*len(bd) : (i+1)*len(bd)] and len(ad) ==
// len(dst)·len(bd), which MulAddInto checks. The AVX2 kernel runs every
// full group of 4 rows, one row per lane, and mulAddRowGo the 1-3 rows
// past them, or mulAddRowGo every row when the assembly is not selected;
// the bits are the same.
func mulAddCol(dst, ad, bd []float64) {
	k, i := len(bd), 0
	if useAVX2 && k > 0 {
		i = len(dst) &^ 3
		mulAddColAVX2(dst[:i], ad[:i*k], bd)
	}
	for ; i < len(dst); i++ {
		mulAddRowGo(dst[i:i+1], ad[i*k:i*k+k], bd, 1)
	}
}

// mulAddRow computes drow += arow·B, where row k of B is bd[k*p : k*p+p],
// for len(drow) == p and len(bd) == len(arow)·p, which MulAddInto checks.
// It runs the AVX2 kernel over every full 4-column block and mulAddRowGo
// over the 1-3 column tail, or mulAddRowGo alone when the assembly is not
// selected. Both give identical bits.
func mulAddRow(drow, arow, bd []float64, p int) {
	if useAVX2 && p >= 4 {
		n := p &^ 3
		mulAddRowAVX2(drow[:n], arow, bd, p)
		if n < p {
			mulAddRowGo(drow[n:], arow, bd[n:], p)
		}
		return
	}
	mulAddRowGo(drow, arow, bd, p)
}

// mulAddRowGo is the scalar kernel and the reference the assembly must
// match: drow += arow·B over len(drow) columns, where row k of B starts at
// bd[k*p]. The destination is processed in 8-column register blocks, each
// loaded once, accumulated across the whole coefficient row, and stored
// once. Per destination element the accumulates apply in ascending-k order
// with exact zeros skipped, matching the reference triple loop bit for bit
// (element chains are independent, so the column-block traversal order
// cannot change any sum).
func mulAddRowGo(drow, arow, bd []float64, p int) {
	if p == 1 {
		// Column-vector fast path (the prediction head): the destination is
		// one element, so keep it in a register across the whole coefficient
		// row. The accumulates still apply to y sequentially in ascending-k
		// order with zeros skipped — the same chain as the general path.
		y := drow[0]
		bd = bd[:len(arow)]
		for k, aik := range arow {
			if aik == 0 {
				continue
			}
			y += aik * bd[k]
		}
		drow[0] = y
		return
	}
	col := 0
	for ; col+8 <= len(drow); col += 8 {
		dblk := drow[col : col+8 : col+8]
		// Eight scalar accumulators so the compiler keeps the destination
		// block in registers across the whole coefficient row.
		y0, y1, y2, y3 := dblk[0], dblk[1], dblk[2], dblk[3]
		y4, y5, y6, y7 := dblk[4], dblk[5], dblk[6], dblk[7]
		for k, aik := range arow {
			if aik == 0 {
				continue
			}
			o := k*p + col
			b := bd[o : o+8 : o+8]
			y0 += aik * b[0]
			y1 += aik * b[1]
			y2 += aik * b[2]
			y3 += aik * b[3]
			y4 += aik * b[4]
			y5 += aik * b[5]
			y6 += aik * b[6]
			y7 += aik * b[7]
		}
		dblk[0], dblk[1], dblk[2], dblk[3] = y0, y1, y2, y3
		dblk[4], dblk[5], dblk[6], dblk[7] = y4, y5, y6, y7
	}
	if col < len(drow) {
		tail := drow[col:]
		for k, aik := range arow {
			if aik == 0 {
				continue
			}
			b := bd[k*p+col : k*p+len(drow)]
			for j, v := range b {
				tail[j] += aik * v
			}
		}
	}
}

// axpyRow computes y += alpha*x. It panics unless len(x) == len(y), then
// runs the AVX2 kernel over every full 4-element block and axpyRowGo over
// the tail, or axpyRowGo alone when the assembly is not selected. Each
// element receives exactly one accumulate, so the paths give identical bits.
func axpyRow(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("tensor: AXPY length mismatch")
	}
	if useAVX2 && len(x) >= 4 {
		n := len(x) &^ 3
		axpyAVX2(alpha, x[:n], y[:n])
		if n == len(x) {
			return
		}
		x, y = x[n:], y[n:]
	}
	axpyRowGo(alpha, x, y)
}

// axpyRowGo is the scalar kernel behind axpyRow, for len(x) == len(y). The
// subslice walk keeps the body free of bounds checks (verified with
// -gcflags=-d=ssa/check_bce); each element receives exactly one
// accumulate, so unrolling is bit-neutral.
func axpyRowGo(alpha float64, x, y []float64) {
	for len(x) >= 4 && len(y) >= 4 {
		xq := x[:4]
		yq := y[:4]
		yq[0] += alpha * xq[0]
		yq[1] += alpha * xq[1]
		yq[2] += alpha * xq[2]
		yq[3] += alpha * xq[3]
		x = x[4:]
		y = y[4:]
	}
	y = y[:len(x)]
	for i, v := range x {
		y[i] += alpha * v
	}
}

// MulATBAddInto computes dst += aᵀ·b (a is n×r, b is n×c, dst is r×c),
// one MulATBAddRowInto per row pair in ascending i order, so per dst
// element the accumulation is the plain loop's chain, bit for bit.
func MulATBAddInto(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("tensor: MulATBAddInto shape mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		MulATBAddRowInto(dst, a.Row(i), b.Row(i))
	}
}

// MulATBAddRowInto computes dst += aᵀ·b for one row pair: a has length
// dst.Rows, b has length dst.Cols, and row k of dst receives a[k]·b. Exact
// zero coefficients are skipped. It is the row-granular MulATBAddInto the
// GCN backward pass uses on gathered aggregate rows. Each element of dst
// receives at most one accumulate, the one axpyRow applies, so the AVX2
// kernel (every full 4-column block of all rows in one call) and the
// scalar tail give the bits of one axpyRow per kept coefficient.
func MulATBAddRowInto(dst *Matrix, a, b []float64) {
	if len(a) != dst.Rows || len(b) != dst.Cols || len(dst.Data) != dst.Rows*dst.Cols {
		panic("tensor: MulATBAddRowInto shape mismatch")
	}
	c, n := len(b), 0
	if useAVX2 && c >= 4 {
		n = c &^ 3
		mulATBRowAVX2(dst.Data, a, b[:n], c)
	}
	if n == c {
		return
	}
	for k, av := range a {
		if av == 0 {
			continue
		}
		axpyRowGo(av, b[n:], dst.Data[k*c+n:k*c+c])
	}
}

// TransposeInto writes bᵀ (b.Cols rows of b.Rows) into the first
// len(b.Data) elements of dst and returns them: the layout
// MulABTAddRowInto reads.
func TransposeInto(dst []float64, b *Matrix) []float64 {
	m, c := b.Rows, b.Cols
	if len(dst) < m*c {
		panic("tensor: TransposeInto destination too short")
	}
	dst = dst[:m*c]
	for i := 0; i < m; i++ {
		for k, v := range b.Data[i*c : i*c+c] {
			dst[k*m+i] = v
		}
	}
	return dst
}

// MulABTAddInto computes dst += a·bᵀ (a is n×c, b is m×c, dst is n×m):
// it transposes b into bt, caller-owned scratch of at least m·c elements,
// then runs MulABTAddRowInto on every row.
func MulABTAddInto(dst, a, b *Matrix, bt []float64) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("tensor: MulABTAddInto shape mismatch")
	}
	bt = TransposeInto(bt, b)
	for i := 0; i < a.Rows; i++ {
		MulABTAddRowInto(dst.Row(i), a.Row(i), bt)
	}
}

// MulABTAddRowInto computes drow += arow·bᵀ for one row, where bt holds bᵀ
// as TransposeInto lays it out: len(arow) rows of len(drow). Every element
// is one dot-product chain, s := 0; s += arow[k]·bᵀ[k][j] over ascending
// k with no coefficient skipped, then drow[j] += s. The AVX2 kernel runs
// one chain per lane over every full 4-column block and mulABTRowGo the
// 1-3 column tail, or mulABTRowGo alone when the assembly is not
// selected; the bits are the same.
func MulABTAddRowInto(drow, arow, bt []float64) {
	m := len(drow)
	if len(bt) != len(arow)*m {
		panic("tensor: MulABTAddRowInto shape mismatch")
	}
	if useAVX2 && m >= 4 {
		n := m &^ 3
		mulABTRowAVX2(drow[:n], arow, bt, m)
		if n == m {
			return
		}
		drow, bt = drow[n:], bt[n:]
	}
	mulABTRowGo(drow, arow, bt, m)
}

// mulABTRowGo is the scalar kernel behind MulABTAddRowInto and the
// reference its assembly matches: the plain dot-product loop over
// len(drow) columns, where row k of bᵀ starts at bt[k*p].
func mulABTRowGo(drow, arow, bt []float64, p int) {
	for j := range drow {
		s := 0.0
		for k, av := range arow {
			s += av * bt[k*p+j]
		}
		drow[j] += s
	}
}

// GatherScaledInto overwrites dst with alpha-scaled rows of a row-major
// matrix (data hd, row width dim) summed in srcs order:
//
//	dst = ((0 + alpha·row(srcs[0])) + alpha·row(srcs[1])) + …
//
// applied element-wise, exactly the chain a zeroed buffer accumulated by
// sequential AXPY calls would produce — the GCN gather. It panics unless
// every source row hd[s*dim : s*dim+len(dst)] lies within hd, then runs the
// AVX2 kernel over every full 4-column block and gatherScaledGo over the
// tail, or gatherScaledGo alone when the assembly is not selected.
func GatherScaledInto(dst []float64, alpha float64, hd []float64, dim int, srcs []int32) {
	for _, s := range srcs {
		if o := int(s) * dim; o < 0 || o > len(hd)-len(dst) {
			panic("tensor: GatherScaledInto source row out of range")
		}
	}
	if useAVX2 && len(dst) >= 4 {
		n := len(dst) &^ 3
		gatherScaledAVX2(dst[:n], alpha, hd, dim, srcs)
		if n == len(dst) {
			return
		}
		dst, hd = dst[n:], hd[n:]
	}
	gatherScaledGo(dst, alpha, hd, dim, srcs)
}

// gatherScaledGo is the scalar kernel behind GatherScaledInto. The
// destination is held in scalar register blocks across the whole source
// list, so each gathered row costs one load-multiply-add sweep and dst is
// written once.
func gatherScaledGo(dst []float64, alpha float64, hd []float64, dim int, srcs []int32) {
	col := 0
	for ; col+8 <= len(dst); col += 8 {
		dblk := dst[col : col+8 : col+8]
		var y0, y1, y2, y3, y4, y5, y6, y7 float64
		for _, s := range srcs {
			o := int(s)*dim + col
			b := hd[o : o+8 : o+8]
			y0 += alpha * b[0]
			y1 += alpha * b[1]
			y2 += alpha * b[2]
			y3 += alpha * b[3]
			y4 += alpha * b[4]
			y5 += alpha * b[5]
			y6 += alpha * b[6]
			y7 += alpha * b[7]
		}
		dblk[0], dblk[1], dblk[2], dblk[3] = y0, y1, y2, y3
		dblk[4], dblk[5], dblk[6], dblk[7] = y4, y5, y6, y7
	}
	if col < len(dst) {
		tail := dst[col:]
		for j := range tail {
			tail[j] = 0
		}
		for _, s := range srcs {
			o := int(s)*dim + col
			b := hd[o : o+len(tail)]
			for j, v := range b {
				tail[j] += alpha * v
			}
		}
	}
}

// GCNAggLen returns the length of the scratch GCNLayerInto needs for a
// layer of numRel relations over in input columns: one gathered row per
// relation, then each row's kept-coefficient masks, one word per 64
// columns.
func GCNAggLen(numRel, in int) int { return numRel * (in + (in+63)/64) }

// GCNLayerInto computes one relational graph-convolution layer into out,
// destination row by destination row:
//
//	out_d = max(h_d·wself + b + Σ_r (α_dr·Σ_s h_s)·wrel[r], 0)
//
// The sources s of destination d under relation r are
// src[off[d·numRel+r] : off[d·numRel+r+1]], a destination-major CSR index,
// and α_dr is norm[r][d]; a (d, r) pair without sources adds nothing. Bit
// r of rels[d] is set when that pair has sources, so numRel is at most 64.
// Only relations r < len(wrel) are applied, in ascending order. off must
// be non-decreasing, every source in [0, h.Rows), and rels[d] must have
// exactly the bits of d's pairs with sources, which nn.RelGraph.Finalize
// guarantees for the index it builds; every shape is checked here before
// any kernel runs. norm[r] has one element per destination, or none for a
// relation without sources.
//
// Per output element the operations are those of MulInto(h, wself),
// AddRowVec(b), then per relation GatherScaledInto of the sources and
// MulAddInto's row chain of the gathered row, then max(v, 0): each sum
// starts at +0, skips ±0 coefficients and keeps NaN ones, and takes its
// terms in that order. agg is scratch of at least
// GCNAggLen(len(wrel), h.Cols) elements for the gathered rows and their
// masks. The AVX2 kernel keeps every full 16-, 8- or 4-column block of a
// row in registers across all of its terms and gcnLayerGo finishes the
// 1-3 column tail, or gcnLayerGo does the whole layer when the assembly is
// not selected; the bits are the same.
func GCNLayerInto(out, h, wself *Matrix, b []float64, wrel []*Matrix, off, src []int32, rels []uint64, norm [][]float64, numRel int, agg []float64) {
	n, in, p := h.Rows, h.Cols, out.Cols
	okMat := func(m *Matrix, rows, cols int) bool {
		return m.Rows == rows && m.Cols == cols && len(m.Data) == rows*cols
	}
	if !okMat(h, n, in) || !okMat(out, n, p) || !okMat(wself, in, p) || len(b) != p {
		panic("tensor: GCNLayerInto shape mismatch")
	}
	if len(wrel) > numRel || numRel > 64 || len(off) != n*numRel+1 || len(rels) != n || off[0] < 0 || int(off[n*numRel]) > len(src) {
		panic("tensor: GCNLayerInto index does not match the layer")
	}
	if len(norm) < len(wrel) {
		panic("tensor: GCNLayerInto relation norms missing")
	}
	var used uint64 // the relations with sources at some destination
	for _, w := range rels {
		used |= w
	}
	for r, w := range wrel {
		if !okMat(w, in, p) || len(norm[r]) != n && (len(norm[r]) != 0 || used>>r&1 != 0) {
			panic("tensor: GCNLayerInto relation weight or norm shape mismatch")
		}
	}
	if len(agg) < GCNAggLen(len(wrel), in) {
		panic("tensor: GCNLayerInto aggregate buffer too short")
	}
	c := 0
	if useAVX2 && p >= 4 {
		c = p &^ 3
		gcnLayerAVX2(out.Data, h.Data, wself.Data, b[:c], wrel, off, src, rels, norm, n, numRel, in, p, agg)
	}
	if c < p {
		gcnLayerGo(out.Data, h.Data, wself.Data, b, wrel, off, src, norm, numRel, in, p, c, agg[:in])
	}
}

// gcnLayerGo is the scalar kernel behind GCNLayerInto and the reference its
// assembly matches, over the columns [c, p) of every row: the
// destination-major loop of gatherScaledGo into agg, mulAddRowGo and max.
func gcnLayerGo(out, h, wself, b []float64, wrel []*Matrix, off, src []int32, norm [][]float64, numRel, in, p, c int, agg []float64) {
	b = b[c:]
	for d := 0; d*p < len(out); d++ {
		acc := out[d*p+c : d*p+p]
		clear(acc)
		mulAddRowGo(acc, h[d*in:d*in+in], wself[c:], p)
		for j, v := range b {
			acc[j] += v
		}
		for r, w := range wrel {
			lo, hi := off[d*numRel+r], off[d*numRel+r+1]
			if lo == hi {
				continue
			}
			gatherScaledGo(agg, norm[r][d], h, in, src[lo:hi])
			mulAddRowGo(acc, agg, w.Data[c:], p)
		}
		for j, v := range acc {
			acc[j] = max(v, 0)
		}
	}
}

// Sigmoid returns 1/(1+e^-x), numerically stable.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// AXPY computes y += alpha*x; x and y must have equal length.
func AXPY(alpha float64, x, y []float64) { axpyRow(alpha, x, y) }
