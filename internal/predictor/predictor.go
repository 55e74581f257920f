// Package predictor defines the common coverage-predictor interface and
// the §5.2.1 baseline predictors that Table 1 compares PIC against:
//
//	AllPos     — predicts every vertex positive (a naive static analysis);
//	FairCoin   — positive with probability 50%;
//	BiasedCoin — positive with the base rate of positive URBs observed in
//	             the training data (1.1% in the paper's graphs).
//
// Baselines are deterministic: their "randomness" is derived from the
// graph identity, so repeated evaluation of the same graph is stable.
package predictor

import (
	"snowcat/internal/ctgraph"
	"snowcat/internal/parallel"
	"snowcat/internal/pic"
	"snowcat/internal/xrand"
)

// Predictor scores the vertices of a CT graph and carries the decision
// threshold that converts scores to COVERED predictions. Score must be
// safe for concurrent use — batch scoring fans graphs out to a worker
// pool. Every predictor here satisfies that: PIC inference is read-only
// over the model, and the coin baselines derive their randomness from the
// graph identity.
type Predictor interface {
	// Score returns per-vertex positive probabilities.
	Score(g *ctgraph.Graph) []float64
	// Threshold is the operating point for binary decisions.
	Threshold() float64
	// Name identifies the predictor in reports.
	Name() string
}

// BatchScorer is implemented by predictors with a native batch path that
// beats scoring graphs one by one (the PIC's per-worker scratch reuse).
type BatchScorer interface {
	// ScoreBatch returns Score(g) for every graph, index-aligned with gs,
	// using at most workers goroutines (<= 0 selects GOMAXPROCS).
	ScoreBatch(gs []*ctgraph.Graph, workers int) [][]float64
}

// CTIScorer is implemented by predictors that can precompute per-CTI state
// shared by every candidate schedule of one CTI (the PIC's BaseContext).
// BeginCTI/EndCTI bracket the scoring of one CTI's graphs; scores are
// identical with or without the bracketing — it is purely an amortisation.
// BeginCTI and EndCTI mutate the predictor, so they must not race with
// Score/ScoreBatch calls; callers keep the per-CTI walk sequential (as
// mlpct.PlanMLPCT does) and fan out only inside a bracket.
type CTIScorer interface {
	// BeginCTI announces that subsequent graphs derive from base.
	BeginCTI(base *ctgraph.Base)
	// EndCTI releases the per-CTI state.
	EndCTI()
}

// BeginCTI forwards to p's CTIScorer if it has one; a no-op otherwise.
func BeginCTI(p Predictor, base *ctgraph.Base) {
	if c, ok := p.(CTIScorer); ok {
		c.BeginCTI(base)
	}
}

// EndCTI forwards to p's CTIScorer if it has one; a no-op otherwise.
func EndCTI(p Predictor) {
	if c, ok := p.(CTIScorer); ok {
		c.EndCTI()
	}
}

// Predict applies the predictor's threshold to its scores.
func Predict(p Predictor, g *ctgraph.Graph) []bool {
	scores := p.Score(g)
	th := p.Threshold()
	out := make([]bool, len(scores))
	for i, s := range scores {
		out[i] = s >= th
	}
	return out
}

// ScoreAll scores every graph, using the predictor's native batch path
// when it has one and a parallel map over Score otherwise. The result is
// index-aligned with gs and identical to calling Score per graph.
func ScoreAll(p Predictor, gs []*ctgraph.Graph, workers int) [][]float64 {
	if b, ok := p.(BatchScorer); ok {
		return b.ScoreBatch(gs, workers)
	}
	out, err := parallel.Map(workers, len(gs), func(i int) ([]float64, error) {
		return p.Score(gs[i]), nil
	})
	if err != nil {
		panic(err) // only a worker panic can land here; re-raise it
	}
	return out
}

// PredictBatch applies the predictor's threshold to ScoreAll.
func PredictBatch(p Predictor, gs []*ctgraph.Graph, workers int) [][]bool {
	scores := ScoreAll(p, gs, workers)
	th := p.Threshold()
	out := make([][]bool, len(scores))
	for i, row := range scores {
		labels := make([]bool, len(row))
		for j, s := range row {
			labels[j] = s >= th
		}
		out[i] = labels
	}
	return out
}

// PIC adapts a trained pic.Model (plus its kernel token cache) to the
// Predictor interface.
type PIC struct {
	Model *pic.Model
	TC    *pic.TokenCache
	Label string

	bc *pic.BaseContext // per-CTI context between BeginCTI and EndCTI
}

// NewPIC wraps a trained model.
func NewPIC(m *pic.Model, tc *pic.TokenCache, label string) *PIC {
	if label == "" {
		label = "PIC"
	}
	return &PIC{Model: m, TC: tc, Label: label}
}

func (p *PIC) Score(g *ctgraph.Graph) []float64 { return p.Model.Predict(g, p.TC) }
func (p *PIC) Threshold() float64               { return p.Model.Threshold }
func (p *PIC) Name() string                     { return p.Label }

// BeginCTI implements CTIScorer: it precomputes the schedule-independent
// feature rows once, amortised across every candidate schedule the CTI's
// scoring will see. Scores are bit-identical with or without it.
func (p *PIC) BeginCTI(base *ctgraph.Base) { p.bc = p.Model.NewBaseContext(base, p.TC) }

// EndCTI implements CTIScorer, dropping the per-CTI context.
func (p *PIC) EndCTI() { p.bc = nil }

// ScoreBatch implements BatchScorer via the model's scratch-reusing
// parallel inference path (pic.PredictAllCtx), reusing the per-CTI context
// of an active BeginCTI. Scores are bit-identical to Score's.
func (p *PIC) ScoreBatch(gs []*ctgraph.Graph, workers int) [][]float64 {
	return p.Model.PredictAllCtx(gs, p.TC, workers, p.bc)
}

// AllPos predicts every vertex positive.
type AllPos struct{}

func (AllPos) Score(g *ctgraph.Graph) []float64 {
	out := make([]float64, len(g.Vertices))
	for i := range out {
		out[i] = 1
	}
	return out
}
func (AllPos) Threshold() float64 { return 0.5 }
func (AllPos) Name() string       { return "All pos" }

// Coin predicts positive with probability P, deterministically derived
// from the graph identity and vertex index.
type Coin struct {
	P    float64
	Seed uint64
	Tag  string
}

// FairCoin returns the 50% baseline.
func FairCoin(seed uint64) *Coin { return &Coin{P: 0.5, Seed: seed, Tag: "Fair coin"} }

// BiasedCoin returns the base-rate baseline.
func BiasedCoin(rate float64, seed uint64) *Coin {
	return &Coin{P: rate, Seed: seed, Tag: "Biased coin"}
}

func (c *Coin) Score(g *ctgraph.Graph) []float64 {
	rng := xrand.New(c.Seed ^ uint64(g.CTI.ID)*0x9e3779b97f4a7c15 ^ hashSched(g))
	out := make([]float64, len(g.Vertices))
	for i := range out {
		// Score above/below threshold with probability P; the magnitude
		// is random so ranking metrics (AP) see a random ordering.
		if rng.Bool(c.P) {
			out[i] = 0.5 + 0.5*rng.Float64()
		} else {
			out[i] = 0.5 * rng.Float64()
		}
	}
	return out
}
func (c *Coin) Threshold() float64 { return 0.5 }
func (c *Coin) Name() string       { return c.Tag }

// hashSched folds the schedule into the coin stream so different schedules
// of one CTI flip differently.
func hashSched(g *ctgraph.Graph) uint64 {
	h := uint64(1469598103934665603)
	for _, hint := range g.Sched.Hints {
		h ^= uint64(uint32(hint.Ref.Block))<<8 ^ uint64(uint32(hint.Ref.Idx)) ^ uint64(hint.Thread)<<32
		h *= 1099511628211
	}
	return h
}
