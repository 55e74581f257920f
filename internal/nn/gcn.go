package nn

import (
	"fmt"

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
// Finalize additionally builds a CSR view of each relation — in-edges
// grouped by destination with prefix offsets, preserving insertion order
// within each destination — which turns the aggregation's scatter-AXPY
// into a sequential per-row gather (no write contention, better cache
// locality) while keeping the floating-point accumulation order of every
// aggregate element identical to the edge-list walk.
type RelGraph struct {
	NumNodes int
	Rel      [][]EdgePair // per relation
	Norm     [][]float64  // per relation: 1/in-degree of each node

	// CSR view, valid once finalized: for relation r, the sources of the
	// in-edges of node d are csrSrc[r][csrOff[r][d]:csrOff[r][d+1]], in
	// the order the edges were added.
	csrOff    [][]int32
	csrSrc    [][]int32
	cursor    []int32 // Finalize scratch, reused across Reset cycles
	finalized bool
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
// rebuilds allocate nothing).
func (g *RelGraph) Reset(numNodes, numRel int) {
	g.NumNodes = numNodes
	g.Rel = growSlices(g.Rel, numRel)
	for r := range g.Rel {
		g.Rel[r] = g.Rel[r][:0]
	}
	g.Norm = growSlices(g.Norm, numRel)
	g.csrOff = growSlices(g.csrOff, numRel)
	g.csrSrc = growSlices(g.csrSrc, numRel)
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

// growI32 returns an int32 slice of length n reusing s's capacity.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
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

// Finalize computes the normalisation terms and the CSR view; call once
// after all AddEdge calls. Calling Finalize twice without an intervening
// Reset panics — the graph is already finalized and a second pass would
// only mask a caller that forgot to rebuild. Buffers from a previous
// Reset cycle are reused, so steady-state rebuilds allocate nothing.
func (g *RelGraph) Finalize() {
	if g.finalized {
		panic("nn: RelGraph.Finalize called twice (Reset before rebuilding)")
	}
	g.finalized = true
	g.cursor = growI32(g.cursor, g.NumNodes)
	for r := range g.Rel {
		edges := g.Rel[r]
		if len(edges) == 0 {
			// Every consumer gates on a non-empty source list before touching
			// the offsets or norms, so an edgeless relation needs no CSR at
			// all — only a zero-length source marker — and skips the offset
			// and norm fills (the IRQ relations of most CT graphs are empty).
			g.csrSrc[r] = g.csrSrc[r][:0]
			continue
		}
		off := growI32(g.csrOff[r], g.NumNodes+1)
		for i := range off {
			off[i] = 0
		}
		for _, e := range edges {
			off[e.Dst+1]++
		}
		norm := g.Norm[r]
		if cap(norm) < g.NumNodes {
			norm = make([]float64, g.NumNodes)
		} else {
			norm = norm[:g.NumNodes]
		}
		for d := 0; d < g.NumNodes; d++ {
			deg := off[d+1]
			if deg > 0 {
				norm[d] = 1 / float64(deg)
			} else {
				norm[d] = 0
			}
			off[d+1] += off[d]
			g.cursor[d] = off[d]
		}
		src := growI32(g.csrSrc[r], len(edges))
		for _, e := range edges {
			src[g.cursor[e.Dst]] = e.Src
			g.cursor[e.Dst]++
		}
		g.Norm[r] = norm
		g.csrOff[r] = off
		g.csrSrc[r] = src
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
// scratch; only its first row (In wide) is used, as the per-destination
// gather buffer.
//
// The aggregation walks the finalized CSR view destination by destination:
// gather the in-edges of row d into the buffer, then multiply that one row
// into out immediately (MulAddRowInto). Rows without in-edges are never
// visited — exactly the rows whose all-zero aggregate would contribute
// nothing under MulAddInto's zero-skip — and each visited row accumulates
// its incoming terms in edge-insertion order (CSR grouping is stable), so
// every element's floating-point chain is the one an edge-list scatter
// into a zeroed n×In aggregate followed by MulAddInto produces (the
// reference in gcn_ref_test.go).
func (l *GCNLayer) Infer(g *RelGraph, h, out, agg *tensor.Matrix) {
	if !g.finalized {
		panic("nn: GCNLayer.Infer on a RelGraph that was not finalized")
	}
	tensor.MulInto(out, h, l.WSelf.Matrix())
	out.AddRowVec(l.B.Val)
	n := g.NumNodes
	var buf []float64
	if len(agg.Data) >= l.In {
		buf = agg.Data[:l.In]
	}
	for r := range l.WRel {
		if r >= g.NumRel() {
			continue
		}
		off, src := g.csrOff[r], g.csrSrc[r]
		if len(src) == 0 {
			continue // no edges: the relation term is identically zero
		}
		norm := g.Norm[r]
		w := l.WRel[r].Matrix()
		for d := 0; d < n; d++ {
			lo, hi := off[d], off[d+1]
			if lo == hi {
				continue
			}
			// Gather the in-edges in edge-insertion order (the chain a
			// zeroed buffer accumulated by sequential AXPYs would produce),
			// then multiply the one gathered row into out immediately.
			tensor.GatherScaledInto(buf, norm[d], h.Data, l.In, src[lo:hi])
			tensor.MulAddRowInto(out.Row(d), buf, w)
		}
	}
	out.ReLUInPlace()
}

// Backward consumes the loss gradient dout w.r.t. the layer's output and
// returns the gradient w.r.t. its input, accumulating parameter gradients.
// h and out are the input and output of the Infer call being
// differentiated; dout is modified in place (masked).
//
// The ReLU mask is read off out: out > 0 is false exactly where the
// pre-activation was not positive (max(v, 0) leaves +0, or a NaN that
// fails the test the same way), and dout is multiplied by 0 there. The
// relation-weight gradient needs each relation's aggregate Â_r·H, which
// no buffer keeps: Backward gathers its rows from h again, with the
// kernel Infer uses, visiting the rows with in-edges in ascending order
// and adding each into the gradient with MulATBAddRowInto. That is the
// accumulation chain of MulATBAddInto over the whole aggregate, whose
// all-zero rows it skips one coefficient at a time, so the gradients are
// bit-identical to the reference in gcn_ref_test.go.
func (l *GCNLayer) Backward(g *RelGraph, h, out, dout *tensor.Matrix) *tensor.Matrix {
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
	dh := tensor.New(h.Rows, l.In)
	tensor.MulABTAddInto(dh, dz, l.WSelf.Matrix())
	// Relation weights and scatter-backward through the aggregation.
	dagg := tensor.New(h.Rows, l.In)
	buf := make([]float64, l.In)
	for r := range l.WRel {
		if r >= g.NumRel() {
			continue
		}
		off, src := g.csrOff[r], g.csrSrc[r]
		if len(src) == 0 {
			continue // no edges: no weight gradient and nothing to scatter
		}
		norm := g.Norm[r]
		gw := l.WRel[r].GradMatrix()
		for d := 0; d < g.NumNodes; d++ {
			lo, hi := off[d], off[d+1]
			if lo == hi {
				continue
			}
			tensor.GatherScaledInto(buf, norm[d], h.Data, l.In, src[lo:hi])
			tensor.MulATBAddRowInto(gw, buf, dz.Row(d))
		}
		dagg.Zero()
		tensor.MulABTAddInto(dagg, dz, l.WRel[r].Matrix())
		for _, e := range g.Rel[r] {
			tensor.AXPY(norm[e.Dst], dagg.Row(int(e.Dst)), dh.Row(int(e.Src)))
		}
	}
	return dh
}
