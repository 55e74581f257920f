package nn

import (
	"fmt"
	"math/bits"

	"snowcat/internal/tensor"
	"snowcat/internal/xrand"
)

// EdgePair is one directed edge in a relational graph.
type EdgePair struct {
	Src, Dst int32
}

// RelGraph is the adjacency structure a GCNLayer consumes: edges bucketed
// by relation, with per-destination inverse-in-degree normalisation. A CT
// graph's typed edges become relations 0..T-1; the reversed edges become
// relations T..2T-1, so information flows both ways while the model can
// still distinguish direction (e.g. writer→reader in a data-flow edge).
//
// Finalize also builds one CSR index keyed by (destination, relation) in
// destination-major order, the order GCNLayer.Infer walks: the sources of
// the in-edges of node d under relation r are src[off[d·R+r]:off[d·R+r+1]]
// (R = NumRel(), at most 64), in the order the edges were added, so every
// aggregate element's floating-point chain is the edge-list walk's. Bit r
// of rels[d] is set when that run is not empty.
type RelGraph struct {
	NumNodes int
	Rel      [][]EdgePair // per relation
	Norm     [][]float64  // per relation: 1/in-degree of each node; empty without edges

	off, src  []int32  // the CSR index, valid once finalized
	rels      []uint64 // per destination: the relations with sources there
	finalized bool

	// shared marks the relations whose Rel and Norm Splice took from a
	// base graph; ownRel and ownNorm keep g's own buffers of those
	// relations, which Reset hands back, so no rebuild ever writes
	// through a base's slices.
	shared  uint64
	ownRel  [][]EdgePair
	ownNorm [][]float64
}

// NewRelGraph builds a RelGraph with numRel relations over numNodes nodes.
func NewRelGraph(numNodes, numRel int) *RelGraph {
	g := &RelGraph{}
	g.Reset(numNodes, numRel)
	return g
}

// Reset prepares the graph for rebuilding with new dimensions, clearing
// the finalized state and reusing every buffer whose capacity suffices —
// the arena behaviour the inference hot path relies on (steady-state
// rebuilds allocate nothing). The relations a Splice took from a base get
// their own buffers back first.
func (g *RelGraph) Reset(numNodes, numRel int) {
	for q := g.shared; q != 0; q &= q - 1 {
		r := bits.TrailingZeros64(q)
		g.Rel[r], g.Norm[r] = g.ownRel[r], g.ownNorm[r]
	}
	g.shared = 0
	g.NumNodes = numNodes
	g.Rel = growSlices(g.Rel, numRel)
	for r := range g.Rel {
		g.Rel[r] = g.Rel[r][:0]
	}
	g.Norm = growSlices(g.Norm, numRel)
	g.finalized = false
}

// growSlices resizes a slice-of-slices to length n, reusing capacity.
func growSlices[T any](s [][]T, n int) [][]T {
	if cap(s) < n {
		ns := make([][]T, n)
		copy(ns, s)
		return ns
	}
	return s[:n]
}

// grow returns a slice of length n reusing s's capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// AddEdge inserts a directed edge under relation r.
func (g *RelGraph) AddEdge(r int, src, dst int32) {
	if g.finalized {
		panic("nn: RelGraph.AddEdge after Finalize (Reset before rebuilding)")
	}
	g.Rel[r] = append(g.Rel[r], EdgePair{Src: src, Dst: dst})
}

// Finalize checks every edge, then computes the normalisation terms and
// the CSR index; call once after all AddEdge calls. An edge with an
// endpoint outside [0, NumNodes) panics, naming its relation and index:
// the layer kernels read rows of h by these indices unchecked. So do more
// than 64 relations, which the relation bits cannot hold. Calling Finalize
// twice without an intervening Reset panics — the graph is already
// finalized and a second pass would only mask a caller that forgot to
// rebuild. Buffers from a previous Reset cycle are reused, so steady-state
// rebuilds allocate nothing.
func (g *RelGraph) Finalize() {
	g.markFinalized()
	n, nr := g.NumNodes, len(g.Rel)
	// off[k] counts the edges of bucket k = d·R+r, then becomes the end of
	// the bucket; each bucket is filled back to front from its end, so it
	// ends at its start with its sources in insertion order.
	off := grow(g.off, n*nr+1)
	clear(off)
	for r, edges := range g.Rel {
		g.checkEdges(r)
		for _, e := range edges {
			off[int(e.Dst)*nr+r]++
		}
	}
	for r, edges := range g.Rel {
		if len(edges) == 0 {
			g.Norm[r] = g.Norm[r][:0] // an edgeless relation: the IRQ relations of most CT graphs
			continue
		}
		norm := grow(g.Norm[r], n)
		g.Norm[r] = norm
		for d := range norm {
			norm[d] = 0
			if deg := off[d*nr+r]; deg > 0 {
				norm[d] = 1 / float64(deg)
			}
		}
	}
	rels := grow(g.rels, n)
	var end int32
	for d := range rels {
		var w uint64
		for r, c := range off[d*nr : d*nr+nr] {
			if c > 0 {
				w |= 1 << r
			}
			end += c
			off[d*nr+r] = end
		}
		rels[d] = w
	}
	off[n*nr] = end
	src := grow(g.src, int(end))
	for r, edges := range g.Rel {
		for i := len(edges) - 1; i >= 0; i-- {
			k := int(edges[i].Dst)*nr + r
			off[k]--
			src[off[k]] = edges[i].Src
		}
	}
	g.off, g.src, g.rels = off, src, rels
}

// Splice finalizes g over base, a finalized graph of the same shape, as
// the graph holding base's edges and then g's: it equals what Finalize
// builds after Reset, one AddEdge per edge of base and then of g, field
// for field. g may hold edges only in relations that base leaves empty,
// and its edges are checked as Finalize checks them. The relations g has
// no edges in are not copied: g takes base's Rel and Norm slices for them
// and must not write to them (Reset hands g its own back). The index is
// one pass over base's that shifts its offsets past the sources g adds
// and copies its sources in runs between them, so a splice costs little
// more than base's index plus g's edges. base is only read, so any number
// of graphs may splice onto one base concurrently.
func (g *RelGraph) Splice(base *RelGraph) {
	if !base.finalized || base.NumNodes != g.NumNodes || len(base.Rel) != len(g.Rel) {
		panic("nn: RelGraph.Splice onto a graph of another shape or not finalized")
	}
	g.markFinalized()
	n, nr := g.NumNodes, len(g.Rel)
	if cap(g.ownRel) < nr {
		g.ownRel, g.ownNorm = make([][]EdgePair, nr), make([][]float64, nr)
	}
	g.ownRel, g.ownNorm = g.ownRel[:nr], g.ownNorm[:nr]
	var added uint64 // the relations g adds edges to
	extra := 0
	for r, edges := range g.Rel {
		if len(edges) == 0 {
			g.ownRel[r], g.ownNorm[r] = g.Rel[r], g.Norm[r]
			g.Rel[r], g.Norm[r] = base.Rel[r], base.Norm[r]
			g.shared |= 1 << r
			continue
		}
		if len(base.Rel[r]) > 0 {
			panic(fmt.Sprintf("nn: RelGraph.Splice adds edges to relation %d, which the base already has", r))
		}
		g.checkEdges(r)
		added |= 1 << r
		extra += len(edges)
		norm := grow(g.Norm[r], n) // the in-degrees first, then their inverses
		g.Norm[r] = norm
		clear(norm)
		for _, e := range edges {
			norm[e.Dst]++
		}
	}
	off := grow(g.off, n*nr+1)
	src := grow(g.src, len(base.src)+extra)
	rels := grow(g.rels, n)
	copy(rels, base.rels)
	// Between the destinations g adds sources at, base's offsets move by
	// the sources added so far (shift), and base's sources are copied in
	// runs; at such a destination each added run is left room for.
	var shift, run int32 // sources added so far; start of base's sources not yet copied
	next := 0            // the first offset not yet written
	for d := 0; d < n; d++ {
		var w uint64 // the added relations with sources at d
		for q := added; q != 0; q &= q - 1 {
			if r := bits.TrailingZeros64(q); g.Norm[r][d] != 0 {
				w |= 1 << r
			}
		}
		if w == 0 {
			continue
		}
		shiftInto(off[next:d*nr], base.off[next:d*nr], shift)
		next = d*nr + nr
		for r, o := range base.off[d*nr : d*nr+nr] {
			off[d*nr+r] = o + shift
			if w>>r&1 == 0 {
				continue
			}
			copy(src[run+shift:], base.src[run:o])
			run = o
			shift += int32(g.Norm[r][d])
			off[d*nr+r] = o + shift // the run's end, filled back to front below
		}
		rels[d] |= w
	}
	shiftInto(off[next:], base.off[next:], shift)
	copy(src[run+shift:], base.src[run:])
	for q := added; q != 0; q &= q - 1 {
		r := bits.TrailingZeros64(q)
		edges, norm := g.Rel[r], g.Norm[r]
		for i := len(edges) - 1; i >= 0; i-- {
			k := int(edges[i].Dst)*nr + r
			off[k]--
			src[off[k]] = edges[i].Src
		}
		for d, deg := range norm {
			if deg != 0 {
				norm[d] = 1 / deg
			}
		}
	}
	g.off, g.src, g.rels = off, src, rels
}

// shiftInto sets dst[i] = src[i] + shift over len(src) elements.
func shiftInto(dst, src []int32, shift int32) {
	if shift == 0 {
		copy(dst, src)
		return
	}
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = v + shift
	}
}

// markFinalized marks the graph finalized. It panics if the graph already
// is, or if it has more relations than the relation bits hold.
func (g *RelGraph) markFinalized() {
	if g.finalized {
		panic("nn: RelGraph finalized twice (Reset before rebuilding)")
	}
	if len(g.Rel) > 64 {
		panic(fmt.Sprintf("nn: RelGraph has %d relations, more than the 64 its index holds", len(g.Rel)))
	}
	g.finalized = true
}

// checkEdges panics on an edge of relation r with an endpoint outside
// [0, NumNodes), naming the relation and the edge.
func (g *RelGraph) checkEdges(r int) {
	n := g.NumNodes
	for i, e := range g.Rel[r] {
		if uint(e.Src) >= uint(n) || uint(e.Dst) >= uint(n) {
			panic(fmt.Sprintf("nn: RelGraph relation %d edge %d (%d -> %d) has an endpoint outside [0, %d)",
				r, i, e.Src, e.Dst, n))
		}
	}
}

// NumRel returns the relation count.
func (g *RelGraph) NumRel() int { return len(g.Rel) }

// GCNLayer is one relational graph-convolution layer:
//
//	Z = H·Wself + Σ_r (Â_r·H)·W_r + b,   H' = ReLU(Z)
//
// where Â_r is the in-degree-normalised adjacency of relation r. This is
// the GCN family the paper uses (§4, PyTorch-Geometric GCN), extended with
// per-relation weights so the five CT edge types (plus shortcut edges and
// reverse directions) carry distinct semantics.
//
// A layer holds nothing but its parameters: Infer writes into caller-owned
// buffers and Backward takes the layer's input and output back from the
// caller, so any number of goroutines may run Infer on one shared layer.
type GCNLayer struct {
	In, Out int
	WSelf   *Param
	WRel    []*Param
	B       *Param
}

// NewGCNLayer creates a layer with numRel relation weight matrices.
func NewGCNLayer(name string, in, out, numRel int, rng *xrand.RNG) *GCNLayer {
	l := &GCNLayer{
		In: in, Out: out,
		WSelf: NewParam(name+".Wself", in, out, rng),
		B:     NewParam(name+".b", 1, out, nil),
	}
	for r := 0; r < numRel; r++ {
		l.WRel = append(l.WRel, NewParam(fmt.Sprintf("%s.Wrel%d", name, r), in, out, rng))
	}
	return l
}

// Params returns all learnable parameters of the layer.
func (l *GCNLayer) Params() []*Param {
	ps := []*Param{l.WSelf, l.B}
	ps = append(ps, l.WRel...)
	return ps
}

// Infer computes H' into out (NumNodes×Out), the one forward pass of the
// layer: inference and training both run it. It only reads the
// parameters, so any number of goroutines may call Infer on one shared
// layer, each with its own out and agg buffers. agg is caller-owned
// scratch for the gathered rows of one destination and their masks, at
// least tensor.GCNAggLen(min(len(WRel), NumRel()), In) elements.
//
// It is one tensor.GCNLayerInto call over the graph's CSR index: per
// destination, the self term, the bias, each relation's gathered row times
// its weights in ascending r, and the ReLU. Each element's floating-point
// chain is the one MulInto, AddRowVec, an edge-list scatter into zeroed
// aggregates followed by MulAddInto per relation, and max(v, 0) produce
// (the reference in gcn_ref_test.go).
func (l *GCNLayer) Infer(g *RelGraph, h, out *tensor.Matrix, agg []float64) {
	if !g.finalized {
		panic("nn: GCNLayer.Infer on a RelGraph that was not finalized")
	}
	var views [16]*tensor.Matrix // the weights of up to 16 relations stay on the stack
	w := views[:0]
	for _, p := range l.WRel[:min(len(l.WRel), g.NumRel())] {
		w = append(w, p.Matrix())
	}
	tensor.GCNLayerInto(out, h, l.WSelf.Matrix(), l.B.Val, w, g.off, g.src, g.rels, g.Norm, g.NumRel(), agg)
}

// Backward consumes the loss gradient dout w.r.t. the layer's output (h
// and out are the input and output of the Infer call it differentiates),
// masks dout in place, writes the input gradient into dh (NumNodes×In)
// and accumulates parameter gradients. dagg (NumNodes×In) and wt (In·Out
// or longer) are caller-owned scratch, so a warm call allocates nothing.
//
// dout is multiplied by 0 wherever out > 0 is false: exactly where the
// pre-activation was not positive (max(v, 0) leaves +0, or a NaN that
// fails the test the same way). Per relation, each row d with in-edges,
// in ascending order, is gathered from h again into dagg's row d and
// added into the weight gradient (MulATBAddRowInto: MulATBAddInto's chain
// over the whole aggregate, which skips all-zero rows), then overwritten
// with 0 + dz_d·W_rᵀ. The scatter reads only rows with in-edges, and rows
// are independent chains, so dh and every gradient match the reference in
// gcn_ref_test.go bit for bit.
func (l *GCNLayer) Backward(g *RelGraph, h, out, dout, dh, dagg *tensor.Matrix, wt []float64) {
	if !g.finalized {
		panic("nn: GCNLayer.Backward on a RelGraph that was not finalized")
	}
	for i, v := range out.Data {
		if !(v > 0) {
			dout.Data[i] *= 0
		}
	}
	dz := dout
	// Bias and self weights.
	dz.ColSumInto(l.B.Grad)
	tensor.MulATBAddInto(l.WSelf.GradMatrix(), h, dz)
	dh.Zero()
	tensor.MulABTAddInto(dh, dz, l.WSelf.Matrix(), wt)
	// Relation weights and scatter-backward through the aggregation.
	nr := g.NumRel()
	for r := range l.WRel[:min(len(l.WRel), nr)] {
		if len(g.Rel[r]) == 0 {
			continue // no edges: no weight gradient and nothing to scatter
		}
		norm := g.Norm[r]
		gw := l.WRel[r].GradMatrix()
		wrt := tensor.TransposeInto(wt, l.WRel[r].Matrix())
		for d := 0; d < g.NumNodes; d++ {
			lo, hi := g.off[d*nr+r], g.off[d*nr+r+1]
			if lo == hi {
				continue
			}
			row, dzd := dagg.Row(d), dz.Row(d)
			tensor.GatherScaledInto(row, norm[d], h.Data, l.In, g.src[lo:hi])
			tensor.MulATBAddRowInto(gw, row, dzd)
			clear(row)
			tensor.MulABTAddRowInto(row, dzd, wrt)
		}
		for _, e := range g.Rel[r] {
			tensor.AXPY(norm[e.Dst], dagg.Row(int(e.Dst)), dh.Row(int(e.Src)))
		}
	}
}
