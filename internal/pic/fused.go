// Cross-schedule fused inference (the sweep fast path).
//
// A ScheduleSweep scores hundreds of candidate schedules of one CTI, and
// every one of those CT graphs shares the Base skeleton: the vertex set and
// all edge populations except the scheduling-hint edges are identical. The
// per-graph path still pays a full adjacency rebuild (every edge re-added,
// re-counted, re-sorted) per schedule. The fused path splits the adjacency
// once: the BaseContext carries the finalized CSR of the static relations,
// and each schedule contributes only a tiny delta adjacency holding its
// hint edges. A block of K schedules then runs as one stacked pass — node
// features assembled into a (K·n)×Dim matrix, each GCN layer walking the
// shared CSR K times and the K deltas once (nn.GCNLayer.InferStacked), one
// head matmul — which is bit-identical to K separate PredictInto calls (the
// disjoint-relation argument is spelled out on InferStacked).
package pic

import (
	"snowcat/internal/ctgraph"
	"snowcat/internal/nn"
	"snowcat/internal/parallel"
	"snowcat/internal/tensor"
)

// FuseBlock is the number of schedules scored per stacked pass. Large
// enough to amortise the per-block relation walks, small enough that the
// stacked activations of a typical CT graph stay within a few hundred KB.
// Exported so external batchers (the serve coalescer) chunk at the same
// granularity.
const FuseBlock = 8

// hintRelGraphInto builds g's delta adjacency: only the scheduling-hint
// edges, in their g.Edges order, under the same forward/reverse relation
// indices relGraphInto assigns. Every other relation stays empty — the
// shared static CSR owns those — so the InferStacked disjointness contract
// holds by construction.
func hintRelGraphInto(rg *nn.RelGraph, g *ctgraph.Graph) *nn.RelGraph {
	if rg == nil {
		rg = nn.NewRelGraph(len(g.Vertices), NumRelations)
	} else {
		rg.Reset(len(g.Vertices), NumRelations)
	}
	for _, e := range g.Edges {
		if e.Type != ctgraph.Hint {
			continue
		}
		rg.AddEdge(int(e.Type), e.From, e.To)
		rg.AddEdge(ctgraph.NumEdgeTypes+int(e.Type), e.To, e.From)
	}
	rg.Finalize()
	return rg
}

// matView returns an n-row window of m starting at row row0, sharing m's
// backing array.
func matView(m *tensor.Matrix, row0, rows int) *tensor.Matrix {
	return &tensor.Matrix{Rows: rows, Cols: m.Cols, Data: m.Data[row0*m.Cols : (row0+rows)*m.Cols]}
}

// predictStacked scores gs (all fusable against bc) as one stacked pass,
// writing a freshly allocated probability slice per graph into out. out
// must have len(gs) slots.
func (m *Model) predictStacked(out [][]float64, gs []*ctgraph.Graph, tc *TokenCache, s *Scratch, bc *BaseContext) {
	k := len(gs)
	n := bc.base.NumVertices()
	dim := m.Cfg.Dim
	s.x = ensureMat(s.x, k*n, dim)
	s.h = ensureMat(s.h, k*n, dim)
	s.agg = ensureMat(s.agg, 1, dim)
	s.logits = ensureMat(s.logits, k*n, 1)
	if cap(s.deltas) < k {
		deltas := make([]*nn.RelGraph, k)
		copy(deltas, s.deltas)
		s.deltas = deltas
	}
	s.deltas = s.deltas[:k]
	for j, g := range gs {
		s.deltas[j] = hintRelGraphInto(s.deltas[j], g)
		m.features(g, tc, &s.fc, matView(s.x, j*n, n), bc)
	}
	in, o := s.x, s.h
	for _, l := range m.GCN {
		l.InferStacked(bc.rg, s.deltas, in, o, s.agg)
		in, o = o, in
	}
	m.Head.Forward(in, s.logits)
	for j := range gs {
		probs := make([]float64, n)
		for i := range probs {
			probs[i] = tensor.Sigmoid(s.logits.At(j*n+i, 0))
		}
		out[j] = probs
	}
}

// PredictAllFused is PredictAllCtx with cross-schedule fusion: maximal runs
// of consecutive fusable graphs are scored as stacked passes of up to
// FuseBlock schedules each, everything else falls back to the per-graph
// path. The result is index-aligned with gs and bit-identical to
// PredictAllCtx (and therefore to per-graph Predict) for every mix of
// fusable and non-fusable graphs. A nil bc scores per-graph.
func (m *Model) PredictAllFused(gs []*ctgraph.Graph, tc *TokenCache, workers int, bc *BaseContext) [][]float64 {
	if bc == nil || bc.rg == nil {
		return m.PredictAllCtx(gs, tc, workers, bc)
	}

	// Partition into work items: fused blocks and per-graph fallback runs.
	type span struct {
		lo, hi int
		fused  bool
	}
	var items []span
	for i := 0; i < len(gs); {
		if m.Fusable(gs[i], bc) {
			hi := i + 1
			for hi < len(gs) && hi-i < FuseBlock && m.Fusable(gs[hi], bc) {
				hi++
			}
			items = append(items, span{lo: i, hi: hi, fused: true})
			i = hi
		} else {
			hi := i + 1
			for hi < len(gs) && !m.Fusable(gs[hi], bc) {
				hi++
			}
			items = append(items, span{lo: i, hi: hi})
			i = hi
		}
	}

	w := parallel.Workers(workers)
	scratches := make([]*Scratch, w)
	for i := range scratches {
		scratches[i] = NewScratch()
	}
	out := make([][]float64, len(gs))
	// Each item owns a disjoint index range of out, so workers never race.
	_, err := parallel.MapWorkers(w, len(items), func(worker, i int) (struct{}, error) {
		it := items[i]
		s := scratches[worker]
		if it.fused {
			m.predictStacked(out[it.lo:it.hi], gs[it.lo:it.hi], tc, s, bc)
		} else {
			for j := it.lo; j < it.hi; j++ {
				out[j] = m.PredictInto(nil, gs[j], tc, s, bc)
			}
		}
		return struct{}{}, nil
	})
	if err != nil {
		panic(err) // only a worker panic can land here; re-raise it
	}
	return out
}

// Fusable reports whether g can be scored through a stacked pass over bc:
// it must be derived from bc's Base with the base vertex set unchanged
// (IRQ schedules append handler vertices and IRQ edges, which the static
// CSR does not cover) and carry no edge populations beyond the base ones
// plus hints. External batchers use this to group graphs before calling
// PredictFusedBlock.
func (m *Model) Fusable(g *ctgraph.Graph, bc *BaseContext) bool {
	return bc != nil && bc.rg != nil &&
		g.DerivedFrom(bc.base) &&
		len(g.Vertices) == bc.base.NumVertices() &&
		len(g.Sched.IRQs) == 0
}

// PredictFusedBlock scores gs — every one of which must satisfy
// Fusable(g, bc) — as one single-threaded stacked pass using s, writing a
// freshly allocated probability slice per graph into out[i]. out must have
// at least len(gs) slots. Results are bit-identical to per-graph
// PredictInto. Callers chunk long runs at FuseBlock granularity to keep
// the stacked activations small and expose parallelism across blocks.
func (m *Model) PredictFusedBlock(out [][]float64, gs []*ctgraph.Graph, tc *TokenCache, s *Scratch, bc *BaseContext) {
	for _, g := range gs {
		if !m.Fusable(g, bc) {
			panic("pic: PredictFusedBlock on a non-fusable graph")
		}
	}
	if s == nil {
		s = NewScratch()
	}
	m.predictStacked(out, gs, tc, s, bc)
}
