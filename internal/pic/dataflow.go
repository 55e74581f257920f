package pic

import (
	"fmt"

	"snowcat/internal/ctgraph"
	"snowcat/internal/metrics"
	"snowcat/internal/nn"
	"snowcat/internal/tensor"
	"snowcat/internal/xrand"
)

// This file implements the §6 extension the paper proposes as future work:
// training PIC to predict *inter-thread data flows* — for each potential
// write→read pair (an InterDF edge of the CT graph), whether the concurrent
// execution will actually realise the flow. The paper motivates it with the
// Razzer case study: many selected inputs execute both racing blocks yet do
// not access the same memory at the same time, a failure mode coverage
// prediction cannot see but flow prediction can.
//
// The head is a linear probe over the frozen GCN's final vertex
// representations: logit(e) = Dense([h_src ; h_dst]). Training the probe is
// cheap (no backprop through the base model), which suits the paper's
// framing of the task as an add-on to an already-trained PIC.

// FlowExample pairs a CT graph with its realised-flow labels (aligned with
// Graph.InterDFEdges).
type FlowExample struct {
	G     *ctgraph.Graph
	YFlow []bool
}

// EnsureDFHead lazily creates the data-flow head (models serialised before
// the extension existed load with a nil head).
func (m *Model) EnsureDFHead() {
	if m.DFHead == nil {
		rng := xrand.New(m.Cfg.Seed ^ 0xdf)
		m.DFHead = nn.NewDense("dfhead", 2*m.Cfg.Dim, 1, rng)
	}
}

// flowFeatures computes the final vertex representations in s and
// assembles the per-InterDF-edge feature matrix [h_src ; h_dst].
func (m *Model) flowFeatures(g *ctgraph.Graph, tc *TokenCache, s *Scratch) (*tensor.Matrix, []int) {
	idx := g.InterDFEdges()
	m.forward(g, tc, s, nil)
	h := s.acts[len(m.GCN)]
	dim := m.Cfg.Dim
	x := tensor.New(len(idx), 2*dim)
	for row, ei := range idx {
		e := g.Edges[ei]
		copy(x.Row(row)[:dim], h.Row(int(e.From)))
		copy(x.Row(row)[dim:], h.Row(int(e.To)))
	}
	return x, idx
}

// PredictFlows returns, for each InterDF edge of the graph (in
// Graph.InterDFEdges order), the predicted probability that the flow is
// realised under the graph's schedule.
func (m *Model) PredictFlows(g *ctgraph.Graph, tc *TokenCache) []float64 {
	m.EnsureDFHead()
	s := scratchPool.Get().(*Scratch)
	x, idx := m.flowFeatures(g, tc, s)
	scratchPool.Put(s)
	if len(idx) == 0 {
		return nil
	}
	logits := tensor.New(len(idx), 1)
	m.DFHead.Forward(x, logits)
	out := make([]float64, len(idx))
	for i := range out {
		out[i] = tensor.Sigmoid(logits.At(i, 0))
	}
	return out
}

// TrainDF fits the data-flow head on flow-labelled examples, keeping the
// base model frozen. posWeight scales positive flows (realised flows are
// the minority class, like positive URBs). Returns per-epoch mean losses.
func (m *Model) TrainDF(examples []*FlowExample, tc *TokenCache, epochs int, posWeight float64) ([]float64, error) {
	m.EnsureDFHead()
	if posWeight <= 0 {
		posWeight = 1
	}
	opt := nn.NewAdam(m.Cfg.LR)
	params := m.DFHead.Params()
	rng := xrand.New(m.Cfg.Seed ^ 0xdf7a)
	s := NewScratch()
	var losses []float64
	for ep := 0; ep < epochs; ep++ {
		total, n := 0.0, 0
		for _, i := range rng.Perm(len(examples)) {
			ex := examples[i]
			x, idx := m.flowFeatures(ex.G, tc, s)
			if len(idx) == 0 {
				continue
			}
			if len(ex.YFlow) != len(idx) {
				return nil, fmt.Errorf("pic: flow labels (%d) do not match InterDF edges (%d)",
					len(ex.YFlow), len(idx))
			}
			logits := tensor.New(len(idx), 1)
			m.DFHead.Forward(x, logits)
			dlogits := tensor.New(len(idx), 1)
			loss := 0.0
			inv := 1 / float64(len(idx))
			for r := 0; r < len(idx); r++ {
				p := tensor.Sigmoid(logits.At(r, 0))
				t, w := 0.0, 1.0
				if ex.YFlow[r] {
					t, w = 1, posWeight
				}
				loss += w * bce(p, t)
				dlogits.Set(r, 0, w*(p-t)*inv)
			}
			m.DFHead.Backward(x, dlogits, nil)
			opt.Step(params)
			total += loss * inv
			n++
		}
		if n > 0 {
			total /= float64(n)
		}
		losses = append(losses, total)
		if err := nn.CheckFinite(params); err != nil {
			return losses, fmt.Errorf("pic: DF training diverged: %w", err)
		}
	}
	return losses, nil
}

// EvaluateFlows scores the head on flow-labelled examples: mean per-graph
// AP over graphs with at least one realised flow, plus the base rate.
func (m *Model) EvaluateFlows(examples []*FlowExample, tc *TokenCache) (ap, baseRate float64, graphs int) {
	var aps []float64
	pos, total := 0, 0
	for _, ex := range examples {
		probs := m.PredictFlows(ex.G, tc)
		if len(probs) == 0 {
			continue
		}
		hasPos := false
		for i, y := range ex.YFlow {
			total++
			if y {
				pos++
				hasPos = true
			}
			_ = i
		}
		if hasPos {
			aps = append(aps, metrics.AveragePrecision(probs, ex.YFlow))
			graphs++
		}
	}
	if total > 0 {
		baseRate = float64(pos) / float64(total)
	}
	return metrics.Mean(aps), baseRate, graphs
}
