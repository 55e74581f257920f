package nn

import (
	"fmt"
	"math"
	"testing"

	"snowcat/internal/tensor"
	"snowcat/internal/xrand"
)

// refGCN is GCNLayer's edge-list Forward and Backward as they stood
// before training moved onto Infer, copied verbatim. Only the home of the
// forward caches moved: they lived on GCNLayer and live here now, the
// two tensor helpers the pair used — ReLUInPlace's mask recording and
// MulMaskInPlace — are inlined as refReLU and refMulMask, and
// MulABTAddInto takes a transpose buffer (bt). The tests below pin Infer
// and Backward to this copy bit for bit.
type refGCN struct {
	*GCNLayer

	// forward caches for the backward pass
	h    *tensor.Matrix   // input
	agg  []*tensor.Matrix // per relation: Â_r·H
	mask *tensor.Matrix   // ReLU activation mask
}

// refReLU is the masked branch of the deleted tensor.ReLUInPlace.
func refReLU(m, mask *tensor.Matrix) {
	if mask.Rows != m.Rows || mask.Cols != m.Cols {
		panic("tensor: ReLU mask shape mismatch")
	}
	for i, v := range m.Data {
		if v > 0 {
			mask.Data[i] = 1
		} else {
			mask.Data[i] = 0
			m.Data[i] = 0
		}
	}
}

// refMulMask is the deleted tensor.MulMaskInPlace.
func refMulMask(m, mask *tensor.Matrix) {
	if mask.Rows != m.Rows || mask.Cols != m.Cols {
		panic("tensor: mask shape mismatch")
	}
	for i := range m.Data {
		m.Data[i] *= mask.Data[i]
	}
}

// Forward computes H' for graph g with node features h (NumNodes×In),
// caching intermediates for Backward. Returns a freshly allocated output.
func (l *refGCN) Forward(g *RelGraph, h *tensor.Matrix) *tensor.Matrix {
	n := g.NumNodes
	l.h = h
	out := tensor.New(n, l.Out)
	// Self term.
	tensor.MulInto(out, h, l.WSelf.Matrix())
	out.AddRowVec(l.B.Val)
	// Relation terms.
	if cap(l.agg) < len(l.WRel) {
		l.agg = make([]*tensor.Matrix, len(l.WRel))
	}
	l.agg = l.agg[:len(l.WRel)]
	for r := range l.WRel {
		if r >= g.NumRel() {
			l.agg[r] = nil
			continue
		}
		agg := tensor.New(n, l.In)
		for _, e := range g.Rel[r] {
			tensor.AXPY(g.Norm[r][e.Dst], h.Row(int(e.Src)), agg.Row(int(e.Dst)))
		}
		l.agg[r] = agg
		tensor.MulAddInto(out, agg, l.WRel[r].Matrix())
	}
	l.mask = tensor.New(n, l.Out)
	refReLU(out, l.mask)
	return out
}

// Backward consumes the loss gradient w.r.t. this layer's output and
// returns the gradient w.r.t. its input, accumulating parameter gradients.
// dout is modified in place (masked).
func (l *refGCN) Backward(g *RelGraph, dout *tensor.Matrix) *tensor.Matrix {
	refMulMask(dout, l.mask)
	dz := dout
	// Bias and self weights.
	dz.ColSumInto(l.B.Grad)
	tensor.MulATBAddInto(l.WSelf.GradMatrix(), l.h, dz)
	dh := tensor.New(l.h.Rows, l.In)
	bt := make([]float64, l.In*l.Out)
	tensor.MulABTAddInto(dh, dz, l.WSelf.Matrix(), bt)
	// Relation weights and scatter-backward through the aggregation.
	dagg := tensor.New(l.h.Rows, l.In)
	for r := range l.WRel {
		if r >= g.NumRel() || l.agg[r] == nil {
			continue
		}
		tensor.MulATBAddInto(l.WRel[r].GradMatrix(), l.agg[r], dz)
		dagg.Zero()
		tensor.MulABTAddInto(dagg, dz, l.WRel[r].Matrix(), bt)
		for _, e := range g.Rel[r] {
			tensor.AXPY(g.Norm[r][e.Dst], dagg.Row(int(e.Dst)), dh.Row(int(e.Src)))
		}
	}
	return dh
}

// cloneLayer deep-copies a layer's parameter values and gradients, so the
// reference and the layer under test accumulate into separate storage.
func cloneLayer(l *GCNLayer) *GCNLayer {
	c := NewGCNLayer("clone", l.In, l.Out, len(l.WRel), nil)
	src, dst := l.Params(), c.Params()
	for i := range src {
		copy(dst[i].Val, src[i].Val)
		copy(dst[i].Grad, src[i].Grad)
	}
	return c
}

// sameBits fails unless got and want are bit-identical, which also tells
// −0 from +0 (== does not).
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestGCNBackwardMatchesReference runs Infer + Backward and the reference
// Forward + Backward on the same random layers, graphs, inputs and output
// gradients, and requires the output, the masked dout, dh and every
// parameter gradient to match bit for bit. The cases cover duplicate and
// self edges, empty relations, layers with relations past the graph's
// NumRel (and graphs with relations past the layer's), exact zeros in h
// (whole rows, so some pre-activations are exactly 0 when the bias is
// zero), dirty Infer buffers, and gradients that already hold values.
func TestGCNBackwardMatchesReference(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := xrand.New(5000 + uint64(trial))
		numNodes := 1 + rng.Intn(16)
		graphRel := 1 + rng.Intn(5)
		layerRel := 1 + rng.Intn(5)
		in := 1 + rng.Intn(12)
		out := 1 + rng.Intn(12)

		g := NewRelGraph(numNodes, graphRel)
		for r := 0; r < graphRel; r++ {
			if rng.Intn(4) == 0 {
				continue // an empty relation
			}
			for e := rng.Intn(3 * numNodes); e >= 0; e-- {
				g.AddEdge(r, int32(rng.Intn(numNodes)), int32(rng.Intn(numNodes)))
			}
			v := int32(rng.Intn(numNodes))
			g.AddEdge(r, v, v) // a self edge
			u := int32(rng.Intn(numNodes))
			g.AddEdge(r, u, v) // and a duplicate of it or a second in-edge
			g.AddEdge(r, u, v)
		}
		g.Finalize()

		l := NewGCNLayer("l", in, out, layerRel, rng)
		if trial%2 == 1 {
			l.B.Matrix().Randomize(rng)
		}
		for _, p := range l.Params() {
			p.GradMatrix().Randomize(rng)
		}
		ref := &refGCN{GCNLayer: cloneLayer(l)}

		h := tensor.New(numNodes, in)
		h.Randomize(rng)
		for i := range h.Data {
			if rng.Intn(5) == 0 {
				h.Data[i] = 0
			}
		}
		zeroRow := h.Row(rng.Intn(numNodes))
		for i := range zeroRow {
			zeroRow[i] = 0
		}

		want := ref.Forward(g, h)
		got := tensor.New(numNodes, out)
		got.Randomize(rng) // dirty buffers must not leak into the result
		agg := tensor.New(1, tensor.GCNAggLen(layerRel, in))
		agg.Randomize(rng)
		l.Infer(g, h, got, agg.Data)
		check := func(what string, got, want []float64) {
			t.Helper()
			sameBits(t, fmt.Sprintf("trial %d (V=%d In=%d Out=%d graph R=%d layer R=%d): %s",
				trial, numNodes, in, out, graphRel, layerRel, what), got, want)
		}
		check("Infer", got.Data, want.Data)

		dWant := tensor.New(numNodes, out)
		dWant.Randomize(rng)
		for i := range dWant.Data {
			if rng.Intn(6) == 0 {
				dWant.Data[i] = 0
			}
		}
		dGot := dWant.Clone()
		dhWant := ref.Backward(g, dWant)
		dhGot := tensor.New(numNodes, in) // dirty buffers, as for Infer
		dhGot.Randomize(rng)
		wt := tensor.New(1, in*out+rng.Intn(4))
		wt.Randomize(rng)
		dagg := tensor.New(numNodes, in)
		dagg.Randomize(rng)
		l.Backward(g, h, got, dGot, dhGot, dagg, wt.Data)
		check("masked dout", dGot.Data, dWant.Data)
		check("dh", dhGot.Data, dhWant.Data)
		gotPs, wantPs := l.Params(), ref.Params()
		for i := range gotPs {
			check(gotPs[i].Name+" grad", gotPs[i].Grad, wantPs[i].Grad)
		}
	}
}
