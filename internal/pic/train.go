package pic

import (
	"fmt"

	"snowcat/internal/ctgraph"
	"snowcat/internal/metrics"
	"snowcat/internal/nn"
	"snowcat/internal/xrand"
)

// Example is one labelled training instance: a CT graph and the observed
// concurrent coverage of its vertices. YFlow optionally carries the §6
// data-flow labels (aligned with G.InterDFEdges) for the extension task.
type Example struct {
	G     *ctgraph.Graph
	Y     []bool
	YFlow []bool
}

// AsFlowExamples converts coverage examples that carry flow labels into
// the data-flow training form, skipping examples without labels.
func AsFlowExamples(exs []*Example) []*FlowExample {
	var out []*FlowExample
	for _, ex := range exs {
		if ex.YFlow != nil {
			out = append(out, &FlowExample{G: ex.G, YFlow: ex.YFlow})
		}
	}
	return out
}

// TrainStats reports one epoch of PIC training.
type TrainStats struct {
	Epoch    int
	Loss     float64
	Examples int
}

// Pretrain runs masked-LM pretraining of the assembly encoder over the
// whole kernel's tokenised blocks (tc), the analogue of pre-training BERT
// on all kernel assembly (§3.2).
func (m *Model) Pretrain(tc *TokenCache, epochs int, seed uint64) []nn.PretrainStats {
	return m.Enc.Pretrain(tc.IDs, epochs, m.Cfg.LR, seed)
}

// Train fits the model on the examples for Cfg.Epochs epochs, shuffling
// each epoch, taking one optimiser step per example (one graph is one
// batch, matching the paper's per-graph BCE objective). Returns per-epoch
// stats. Training is deterministic given Cfg.Seed.
func (m *Model) Train(examples []*Example, tc *TokenCache) ([]TrainStats, error) {
	return m.trainN(examples, tc, m.Cfg.Epochs, m.Cfg.LR)
}

// FineTune continues training an existing model on new examples (typically
// from a newer kernel version) for the given epochs at a reduced learning
// rate — the §5.4 incremental-training regime.
func (m *Model) FineTune(examples []*Example, tc *TokenCache, epochs int) ([]TrainStats, error) {
	return m.trainN(examples, tc, epochs, m.Cfg.LR/3)
}

func (m *Model) trainN(examples []*Example, tc *TokenCache, epochs int, lr float64) ([]TrainStats, error) {
	opt := nn.NewAdam(lr)
	params := m.Params()
	rng := xrand.New(m.Cfg.Seed ^ 0x7c41b3) // distinct stream from init
	ts := m.newTrainScratch()
	var stats []TrainStats
	for ep := 0; ep < epochs; ep++ {
		st := TrainStats{Epoch: ep}
		for _, i := range rng.Perm(len(examples)) {
			ex := examples[i]
			st.Loss += m.trainStep(ex.G, tc, ex.Y, ts)
			st.Examples++
			opt.Step(params)
		}
		if st.Examples > 0 {
			st.Loss /= float64(st.Examples)
		}
		if err := nn.CheckFinite(params); err != nil {
			return stats, fmt.Errorf("pic: training diverged at epoch %d: %w", ep, err)
		}
		stats = append(stats, st)
	}
	return stats, nil
}

// TrainState carries warm-start training across retrain rounds: the Adam
// optimiser whose step counter pins the learning-rate (bias-correction)
// schedule. The moment estimates live on the model's parameters (Param.M/V
// serialise with gob), so the state itself is tiny.
type TrainState struct {
	opt   *nn.Adam
	steps int
}

// Steps returns how many incremental optimiser steps the state has taken.
func (st *TrainState) Steps() int { return st.steps }

// NewTrainState opens a fresh warm-start state at the model's configured
// learning rate, step zero.
func (m *Model) NewTrainState() *TrainState {
	return &TrainState{opt: nn.NewAdam(m.Cfg.LR)}
}

// TrainIncremental folds new examples into an already-trained model — the
// online warm-start regime of the learning loop. Unlike Train it does not
// shuffle or epoch: the examples arrive in the canonical stream order and
// each takes exactly one optimiser step, so the result is a pure function
// of (initial model, example sequence). Two invariants the trainer leans
// on, pinned by tests:
//
//   - zero new examples touch nothing — the model is bit-identical to its
//     input (no optimiser step, no gradient, no RNG draw);
//   - chunking is invisible: TrainIncremental(a) then TrainIncremental(b)
//     equals TrainIncremental(a++b) on a fresh state from the same
//     starting point, because the Adam step counter and moments persist
//     in st and the parameters.
func (m *Model) TrainIncremental(st *TrainState, examples []*Example, tc *TokenCache) (TrainStats, error) {
	stats := TrainStats{}
	if len(examples) == 0 {
		return stats, nil
	}
	params := m.Params()
	ts := m.newTrainScratch()
	for _, ex := range examples {
		stats.Loss += m.trainStep(ex.G, tc, ex.Y, ts)
		stats.Examples++
		st.opt.Step(params)
		st.steps++
	}
	stats.Loss /= float64(stats.Examples)
	if err := nn.CheckFinite(params); err != nil {
		return stats, fmt.Errorf("pic: incremental training diverged: %w", err)
	}
	return stats, nil
}

// Tune selects the classification threshold maximising mean F2 over URB
// vertices of the validation examples (§5.1.2) and stores it on the model.
func (m *Model) Tune(valid []*Example, tc *TokenCache) float64 {
	var scores []float64
	var labels []bool
	s := NewScratch()
	for _, ex := range valid {
		probs := m.PredictWith(ex.G, tc, s)
		for i, v := range ex.G.Vertices {
			if v.Type == ctgraph.URB {
				scores = append(scores, probs[i])
				labels = append(labels, ex.Y[i])
			}
		}
	}
	th, _ := metrics.BestFBetaThreshold(scores, labels, 2)
	m.Threshold = th
	return th
}

// Report is the Table 1-style evaluation summary: metrics averaged across
// graphs over a vertex subpopulation.
type Report struct {
	F1, Precision, Recall float64
	Accuracy, BalancedAcc float64
	AP                    float64
	Graphs                int
}

func (r Report) String() string {
	return fmt.Sprintf("F1=%.2f%% P=%.2f%% R=%.2f%% Acc=%.2f%% BA=%.2f%% AP=%.3f (n=%d graphs)",
		r.F1*100, r.Precision*100, r.Recall*100, r.Accuracy*100, r.BalancedAcc*100, r.AP, r.Graphs)
}

// VertexFilter selects which vertices an evaluation covers.
type VertexFilter func(v ctgraph.Vertex) bool

// URBOnly restricts evaluation to URB vertices (Table 1's population).
func URBOnly(v ctgraph.Vertex) bool { return v.Type == ctgraph.URB }

// AllVertices evaluates every vertex (§A.3's population).
func AllVertices(ctgraph.Vertex) bool { return true }

// Scorer is anything that assigns per-vertex probabilities to a CT graph;
// both the PIC model and the §5.2.1 baseline predictors implement it via
// the predictor package.
type Scorer interface {
	Score(g *ctgraph.Graph) []float64
}

// modelScorer adapts Model+TokenCache to Scorer, reusing one inference
// scratch across Score calls.
type modelScorer struct {
	m  *Model
	tc *TokenCache
	s  *Scratch
}

func (s modelScorer) Score(g *ctgraph.Graph) []float64 { return s.m.PredictWith(g, s.tc, s.s) }

// AsScorer adapts the model to the Scorer interface. The returned scorer
// owns a scratch buffer and is therefore not safe for concurrent use; give
// each goroutine its own (sweep workers do).
func (m *Model) AsScorer(tc *TokenCache) Scorer { return modelScorer{m: m, tc: tc, s: NewScratch()} }

// EvaluateScorer computes the per-graph-averaged classification metrics of
// a scorer at the given threshold over the filtered vertex population —
// the procedure behind Table 1. Graphs with no filtered vertices are
// skipped; AP is computed per graph over graphs that contain at least one
// positive.
func EvaluateScorer(s Scorer, examples []*Example, threshold float64, filter VertexFilter) Report {
	var rep Report
	var f1s, ps, rs, accs, bas, aps []float64
	for _, ex := range examples {
		probs := s.Score(ex.G)
		var scores []float64
		var labels []bool
		for i, v := range ex.G.Vertices {
			if filter(v) {
				scores = append(scores, probs[i])
				labels = append(labels, ex.Y[i])
			}
		}
		if len(scores) == 0 {
			continue
		}
		// Per-graph metrics are averaged only over graphs where they are
		// defined (e.g. recall needs at least one positive label); this
		// matches Table 1, where the all-positive baseline reports ~100%
		// recall, which is only possible under defined-graph averaging.
		c := metrics.Evaluate(scores, labels, threshold)
		if c.TP+c.FP > 0 {
			ps = append(ps, c.Precision())
		}
		if c.TP+c.FN > 0 {
			rs = append(rs, c.Recall())
			f1s = append(f1s, c.F1())
			aps = append(aps, metrics.AveragePrecision(scores, labels))
		}
		accs = append(accs, c.Accuracy())
		bas = append(bas, c.BalancedAccuracy())
		rep.Graphs++
	}
	rep.F1 = metrics.Mean(f1s)
	rep.Precision = metrics.Mean(ps)
	rep.Recall = metrics.Mean(rs)
	rep.Accuracy = metrics.Mean(accs)
	rep.BalancedAcc = metrics.Mean(bas)
	rep.AP = metrics.Mean(aps)
	return rep
}
