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
// friendliness. Each row of dst is produced by mulAddRow; every dst element
// receives exactly one accumulate per nonzero coefficient, in ascending k
// order, so the result is bit-identical to the plain triple loop.
func MulAddInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("tensor: MulAddInto shape mismatch")
	}
	n, k2, p := a.Rows, a.Cols, b.Cols
	ad, bd, dd := a.Data, b.Data, dst.Data
	for i := 0; i < n; i++ {
		mulAddRow(dd[i*p:i*p+p], ad[i*k2:i*k2+k2], bd, p)
	}
}

// MulAddRowInto computes dst += a·b for a single coefficient row: dst has
// length b.Cols, a has length b.Rows. It is the row-granular MulAddInto
// the GCN aggregation (nn.GCNLayer.Infer) uses: gather one destination
// row, multiply it into the output immediately. The accumulation order per
// dst element is identical to MulAddInto's, so using either is bit-neutral.
func MulAddRowInto(dst, a []float64, b *Matrix) {
	if len(a) != b.Rows || len(dst) != b.Cols {
		panic("tensor: MulAddRowInto shape mismatch")
	}
	mulAddRow(dst, a, b.Data, b.Cols)
}

// mulAddRow computes drow += arow·B, where row k of B is bd[k*p : k*p+p].
// After checking the slice lengths it runs the AVX2 kernel over every full
// 4-column block and mulAddRowGo over the 1-3 column tail, or mulAddRowGo
// alone when the assembly is not selected. Both give identical bits.
func mulAddRow(drow, arow, bd []float64, p int) {
	if len(drow) != p || len(bd) != len(arow)*p {
		panic("tensor: mulAddRow shape mismatch")
	}
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
// GCN backward pass uses on gathered aggregate rows.
func MulATBAddRowInto(dst *Matrix, a, b []float64) {
	if len(a) != dst.Rows || len(b) != dst.Cols {
		panic("tensor: MulATBAddRowInto shape mismatch")
	}
	c := len(b)
	for k, av := range a {
		if av == 0 {
			continue
		}
		axpyRow(av, b, dst.Data[k*c:k*c+c])
	}
}

// MulABTAddInto computes dst += a·bᵀ (a is n×c, b is m×c, dst is n×m).
// The dot-product accumulator runs in ascending k order (a single serial
// chain), so the sum is bit-identical to the plain loop.
func MulABTAddInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("tensor: MulABTAddInto shape mismatch")
	}
	n, c, m := a.Rows, a.Cols, b.Rows
	ad, bd, dd := a.Data, b.Data, dst.Data
	for i := 0; i < n; i++ {
		arow := ad[i*c : i*c+c]
		drow := dd[i*m : i*m+m]
		for j := 0; j < m; j++ {
			brow := bd[j*c : j*c+c]
			arow := arow[:len(brow)]
			s := 0.0
			for k, av := range arow {
				s += av * brow[k]
			}
			drow[j] += s
		}
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

// ReLUInPlace applies max(v, 0) elementwise. Branchless: negatives and -0
// become +0 while +0 and NaN pass through, without a data-dependent branch
// that mispredicts on ~half the activations.
func (m *Matrix) ReLUInPlace() {
	for i, v := range m.Data {
		m.Data[i] = max(v, 0)
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
