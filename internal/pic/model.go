// Package pic implements the Per-Interleaving Coverage predictor — the
// paper's core contribution (§3.2).
//
// The model takes a CT graph (package ctgraph) and predicts, for every
// vertex (kernel basic block), the probability that the block is covered
// when the concurrent test executes. Architecture, mirroring the paper:
//
//  1. an assembly encoder (nn.AsmEncoder, the RoBERTa substitute) embeds
//     each block's tokenised assembly;
//  2. learnable type embeddings for the 2 vertex types are added;
//  3. a stack of relational GCN layers propagates information along the
//     typed edges (each of the 6 edge types contributes a forward and a
//     reverse relation, 12 in total);
//  4. a linear head produces a per-vertex logit, trained with binary
//     cross-entropy against observed concurrent coverage.
//
// A tuned threshold (max mean F2 over URBs on the validation split,
// §5.1.2) converts probabilities to COVERED/UNCOVERED decisions.
package pic

import (
	"fmt"
	"math"
	"sync"

	"snowcat/internal/ctgraph"
	"snowcat/internal/kasm"
	"snowcat/internal/kernel"
	"snowcat/internal/nn"
	"snowcat/internal/parallel"
	"snowcat/internal/tensor"
	"snowcat/internal/xrand"
)

// Config holds the PIC hyperparameters (§A.2 explores these; the defaults
// here are the scaled-down equivalents of PIC-5's winning set).
type Config struct {
	Dim    int     // embedding and hidden width
	Layers int     // GCN depth; deeper sees farther in the graph (§5.1.2)
	LR     float64 // Adam learning rate
	Epochs int     // training epochs
	Seed   uint64  // parameter initialisation seed
	// PosWeight scales the loss of positive vertices. The paper's graphs
	// carry ~26 positive URBs each (§5.1.1) so plain BCE suffices there;
	// our scaled-down graphs carry <1, and without reweighting the model
	// collapses to the all-negative predictor (documented in DESIGN.md).
	PosWeight float64
}

// DefaultConfig is the standard training configuration.
func DefaultConfig(seed uint64) Config {
	return Config{Dim: 24, Layers: 3, LR: 3e-3, Epochs: 3, Seed: seed, PosWeight: 8}
}

// NumRelations is the GCN relation count: forward + reverse per edge type.
const NumRelations = 2 * ctgraph.NumEdgeTypes

// BaseVocab enumerates the full assembly token universe of the kasm ISA.
// The vocabulary is ISA-determined rather than kernel-determined, so one
// encoder serves every kernel version (the paper pre-trains BERT once for
// the same reason, §3.2).
func BaseVocab() *nn.Vocab {
	var toks []string
	for op := kasm.OpNop; op <= kasm.OpBug; op++ {
		toks = append(toks, op.String())
	}
	for r := 0; r < kasm.NumRegs; r++ {
		toks = append(toks, fmt.Sprintf("r%d", r))
	}
	toks = append(toks, "imm", "[g]", "b", "f", "l")
	return nn.BuildVocab(toks)
}

// TokenCache holds the tokenised assembly of every block of one kernel,
// precomputed once per kernel version.
//
// A TokenCache is immutable after NewTokenCache returns: nothing in this
// package writes IDs afterwards, so any number of goroutines may share one
// cache across concurrent Predict/PredictInto/Train calls without
// synchronisation. Callers that build a cache by hand must finish writing
// IDs before publishing it (TestTokenCacheConcurrentReaders enforces the
// read-only contract under the race detector).
type TokenCache struct {
	IDs [][]int
}

// NewTokenCache tokenises kernel k under vocabulary v.
func NewTokenCache(k *kernel.Kernel, v *nn.Vocab) *TokenCache {
	c := &TokenCache{IDs: make([][]int, k.NumBlocks())}
	for i, b := range k.Blocks {
		c.IDs[i] = v.IDs(b.TokenText())
	}
	return c
}

// Model is the PIC predictor. All fields are exported for gob
// serialisation; Threshold is set by Tune after training.
//
// Beyond the paper's architecture, the model adds two schedule-context
// features: hint-role embeddings (is a vertex the source/target of a
// scheduling-hint edge) and a broadcast hint-context vector (a learned
// transform of the hint blocks' assembly embeddings added to every
// vertex). The paper's full-scale graphs carry the schedule far via deep
// GNNs over shortcut-densified graphs; at this reproduction's scale these
// features restore the same property — every vertex's prediction depends
// on the candidate schedule — without a deeper (slower) network. See
// DESIGN.md §5.
type Model struct {
	Cfg       Config
	Vocab     *nn.Vocab
	Enc       *nn.AsmEncoder
	VType     *nn.Embedding // vertex-type embeddings (SCB/URB)
	HintRole  *nn.Embedding // none / hint-source / hint-target
	HintPos   *nn.Embedding // bucketed hint trace positions (per hint slot)
	HintCtx   *nn.Dense     // broadcast schedule-context transform
	GCN       []*nn.GCNLayer
	Head      *nn.Dense
	Threshold float64
	// DFHead is the §6 inter-thread data-flow prediction head (see
	// dataflow.go); nil until EnsureDFHead or TrainDF is called.
	DFHead *nn.Dense
}

// Hint-role embedding indices.
const (
	hintNone = iota
	hintSrc
	hintDst
	numHintRoles
)

// Hint-position bucketing: each of the first maxHintSlots hints gets its
// trace-position fraction quantised into posBuckets embedding rows.
const (
	posBuckets   = 32
	maxHintSlots = 2
)

// posBucket maps a hint slot and trace fraction to an embedding row.
func posBucket(slot int, frac float64) int {
	b := int(frac * posBuckets)
	if b < 0 {
		b = 0
	}
	if b >= posBuckets {
		b = posBuckets - 1
	}
	return slot*posBuckets + b
}

// New creates an untrained model.
func New(cfg Config) *Model {
	rng := xrand.New(cfg.Seed)
	v := BaseVocab()
	m := &Model{
		Cfg:       cfg,
		Vocab:     v,
		Enc:       nn.NewAsmEncoder(v, cfg.Dim, rng.SplitNamed("enc")),
		VType:     nn.NewEmbedding("vtype", ctgraph.NumVertexTypes, cfg.Dim, rng.SplitNamed("vtype")),
		HintRole:  nn.NewEmbedding("hintrole", numHintRoles, cfg.Dim, rng.SplitNamed("hintrole")),
		HintPos:   nn.NewEmbedding("hintpos", maxHintSlots*posBuckets, cfg.Dim, rng.SplitNamed("hintpos")),
		HintCtx:   nn.NewDense("hintctx", cfg.Dim, cfg.Dim, rng.SplitNamed("hintctx")),
		Head:      nn.NewDense("head", cfg.Dim, 1, rng.SplitNamed("head")),
		Threshold: 0.5,
	}
	for l := 0; l < cfg.Layers; l++ {
		m.GCN = append(m.GCN, nn.NewGCNLayer(fmt.Sprintf("gcn%d", l),
			cfg.Dim, cfg.Dim, NumRelations, rng.SplitNamed(fmt.Sprintf("gcn%d", l))))
	}
	return m
}

// Params returns every learnable parameter.
func (m *Model) Params() []*nn.Param {
	ps := m.Enc.Params()
	ps = append(ps, m.VType.Params()...)
	ps = append(ps, m.HintRole.Params()...)
	ps = append(ps, m.HintPos.Params()...)
	ps = append(ps, m.HintCtx.Params()...)
	for _, l := range m.GCN {
		ps = append(ps, l.Params()...)
	}
	ps = append(ps, m.Head.Params()...)
	return ps
}

// NumParams returns the total parameter count.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.Params() {
		n += p.NumValues()
	}
	return n
}

// relGraphInto converts a CT graph into the GCN adjacency: relation t
// carries the forward edges of edge type t, relation NumEdgeTypes+t the
// reverses. A non-nil rg is Reset and rebuilt in place, so the
// steady-state loop converts graphs to adjacencies without allocating.
func relGraphInto(rg *nn.RelGraph, g *ctgraph.Graph) *nn.RelGraph {
	if rg == nil {
		rg = nn.NewRelGraph(len(g.Vertices), NumRelations)
	} else {
		rg.Reset(len(g.Vertices), NumRelations)
	}
	for _, e := range g.Edges {
		rg.AddEdge(int(e.Type), e.From, e.To)
		rg.AddEdge(ctgraph.NumEdgeTypes+int(e.Type), e.To, e.From)
	}
	rg.Finalize()
	return rg
}

// BaseContext is the per-CTI inference context: the schedule-independent
// part of the node-feature matrix — assembly-encoder output plus
// vertex-type embedding for every vertex of a ctgraph.Base — computed once
// and reused across every candidate schedule of the CTI. Only the
// hint-role, hint-position, and hint-context features vary per schedule,
// and those are re-applied on top of a copy of the precomputed rows, in
// the same op order as the from-scratch assembly, so predictions are
// bit-identical with and without a context.
//
// A BaseContext is immutable; any number of goroutines may share one. It
// is keyed to the Base it was built from: graphs not derived from that
// Base (checked via ctgraph.Graph.DerivedFrom) fall back to the full
// feature computation, so a stale context degrades to slow, never wrong.
// Rebuild after any model-parameter update — the precomputed rows bake in
// the encoder and type-embedding weights.
type BaseContext struct {
	base   *ctgraph.Base
	static *tensor.Matrix // NumVertices×Dim: encoder + vertex-type rows
}

// NewBaseContext precomputes the schedule-independent feature rows for
// every vertex of base.
func (m *Model) NewBaseContext(base *ctgraph.Base, tc *TokenCache) *BaseContext {
	static := tensor.New(base.NumVertices(), m.Cfg.Dim)
	for i, v := range base.Vertices() {
		row := static.Row(i)
		m.Enc.EncodeInto(tc.IDs[v.Block], row)
		tensor.AXPY(1, m.VType.Row(int(v.Type)), row)
	}
	return &BaseContext{base: base, static: static}
}

// featCache carries the feature-assembly intermediates the backward pass
// needs — per-vertex hint roles and the schedule-context path — plus the
// scratch buffers that let inference reuse one cache across graphs.
type featCache struct {
	roles      []int          // hint role per vertex
	hintTokens [][]int        // token lists of the hint source blocks
	posRows    []int          // HintPos embedding rows used
	ctx        *tensor.Matrix // 1×Dim schedule-context input
	ctxOut     *tensor.Matrix // 1×Dim HintCtx output broadcast to all rows
	tmp        []float64      // hint-embedding accumulation scratch
	hasCtx     bool
}

// reset prepares the cache for a graph with n vertices at width dim,
// reusing every buffer whose capacity suffices.
func (fc *featCache) reset(n, dim int) {
	if cap(fc.roles) < n {
		fc.roles = make([]int, n)
	} else {
		fc.roles = fc.roles[:n]
		for i := range fc.roles {
			fc.roles[i] = hintNone
		}
	}
	fc.hintTokens = fc.hintTokens[:0]
	fc.posRows = fc.posRows[:0]
	fc.ctx = ensureMat(fc.ctx, 1, dim)
	fc.ctx.Zero()
	fc.ctxOut = ensureMat(fc.ctxOut, 1, dim)
	fc.ctxOut.Zero()
	if cap(fc.tmp) < dim {
		fc.tmp = make([]float64, dim)
	}
	fc.tmp = fc.tmp[:dim]
	fc.hasCtx = false
}

// ensureMat returns a rows×cols matrix, reusing m's backing array when it
// is large enough; contents are unspecified (callers overwrite or Zero).
func ensureMat(m *tensor.Matrix, rows, cols int) *tensor.Matrix {
	if m == nil || cap(m.Data) < rows*cols {
		return tensor.New(rows, cols)
	}
	m.Data = m.Data[:rows*cols]
	m.Rows, m.Cols = rows, cols
	return m
}

// features assembles the input node-feature matrix into x (n×Dim): block
// embedding, vertex-type embedding, hint-role embedding, and the broadcast
// schedule-context vector. fc is reset and refilled, so one cache (and one
// x) can be reused across graphs — the inference hot loop does. A non-nil
// bc whose Base produced g supplies the encoder+type rows precomputed;
// vertices past the base prefix (IRQ handler blocks) and graphs from other
// bases are computed from scratch.
func (m *Model) features(g *ctgraph.Graph, tc *TokenCache, fc *featCache, x *tensor.Matrix, bc *BaseContext) {
	n := len(g.Vertices)
	dim := m.Cfg.Dim
	fc.reset(n, dim)
	for _, e := range g.Edges {
		if e.Type == ctgraph.Hint {
			fc.roles[e.From] = hintSrc
			if fc.roles[e.To] == hintNone {
				fc.roles[e.To] = hintDst
			}
		}
	}

	// Schedule context: mean assembly embedding of the hint source blocks
	// plus bucketed trace-position embeddings (when each yield happens),
	// transformed and added to every vertex.
	for _, h := range g.Sched.Hints {
		if vi := g.VertexOf(h.Ref.Block); vi >= 0 {
			fc.hintTokens = append(fc.hintTokens, tc.IDs[g.Vertices[vi].Block])
		}
	}
	for slot, frac := range g.HintFrac {
		if slot >= maxHintSlots || frac < 0 {
			continue
		}
		fc.posRows = append(fc.posRows, posBucket(slot, frac))
	}
	if len(fc.hintTokens) > 0 || len(fc.posRows) > 0 {
		fc.hasCtx = true
		if len(fc.hintTokens) > 0 {
			inv := 1 / float64(len(fc.hintTokens))
			for _, toks := range fc.hintTokens {
				m.Enc.EncodeInto(toks, fc.tmp)
				tensor.AXPY(inv, fc.tmp, fc.ctx.Row(0))
			}
		}
		for _, row := range fc.posRows {
			tensor.AXPY(1, m.HintPos.Row(row), fc.ctx.Row(0))
		}
		m.HintCtx.Forward(fc.ctx, fc.ctxOut)
	}

	baseN := 0
	if bc != nil && g.DerivedFrom(bc.base) {
		baseN = bc.static.Rows
	}
	ctxRow := fc.ctxOut.Row(0)
	for i, v := range g.Vertices {
		row := x.Row(i)
		if i < baseN {
			copy(row, bc.static.Row(i))
		} else {
			m.Enc.EncodeInto(tc.IDs[v.Block], row)
			tensor.AXPY(1, m.VType.Row(int(v.Type)), row)
		}
		tensor.AXPY(1, m.HintRole.Row(fc.roles[i]), row)
		tensor.AXPY(1, ctxRow, row)
	}
}

// backwardFeatures propagates the input-feature gradient dh into the
// encoder, type/role embeddings, and the schedule-context path.
func (m *Model) backwardFeatures(g *ctgraph.Graph, tc *TokenCache, fc *featCache, dh *tensor.Matrix) {
	dim := m.Cfg.Dim
	dctxOut := tensor.New(1, dim)
	for i, v := range g.Vertices {
		grad := dh.Row(i)
		m.Enc.Emb.AccumulateMeanGrad(tc.IDs[v.Block], grad)
		m.VType.AccumulateRowGrad(int(v.Type), grad)
		m.HintRole.AccumulateRowGrad(fc.roles[i], grad)
		tensor.AXPY(1, grad, dctxOut.Row(0))
	}
	if !fc.hasCtx {
		return
	}
	dctx := tensor.New(1, dim)
	m.HintCtx.Backward(fc.ctx, dctxOut, dctx)
	for _, row := range fc.posRows {
		m.HintPos.AccumulateRowGrad(row, dctx.Row(0))
	}
	if len(fc.hintTokens) > 0 {
		inv := 1 / float64(len(fc.hintTokens))
		scaled := make([]float64, dim)
		copy(scaled, dctx.Row(0))
		for i := range scaled {
			scaled[i] *= inv
		}
		for _, toks := range fc.hintTokens {
			m.Enc.Emb.AccumulateMeanGrad(toks, scaled)
		}
	}
}

// Scratch is the arena of one caller: the adjacency, the feature cache,
// every layer's activation, the gather buffer, and the logits all live
// here and are reused across calls, so steady-state prediction allocates
// nothing. Training reads the adjacency, the feature cache and the
// activations back for its backward pass. A Scratch must not be shared
// between concurrent goroutines; inference only reads the model, so any
// number of workers may share one Model as long as each owns its Scratch.
type Scratch struct {
	rg     *nn.RelGraph
	fc     featCache
	acts   []*tensor.Matrix // the features, then each GCN layer's output
	agg    *tensor.Matrix   // 1×Dim gather buffer of GCNLayer.Infer
	logits *tensor.Matrix
}

// NewScratch returns an empty scratch; buffers grow on first use and are
// reused across graphs.
func NewScratch() *Scratch { return &Scratch{} }

// scratchPool lends arenas to the calls that bring none (PredictAllCtx,
// PredictInto with a nil Scratch, PredictFlows), so they do not grow a
// fresh set of Layers+1 activations on every call.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// forward runs the model on g using s's buffers and returns the logits,
// owned by s (valid until the next call). It is the one forward pass:
// inference and training both run it, and training reads s.acts, s.rg and
// s.fc for the backward pass. A BaseContext (which may be nil) only
// substitutes precomputed feature rows, never changes an op.
func (m *Model) forward(g *ctgraph.Graph, tc *TokenCache, s *Scratch, bc *BaseContext) *tensor.Matrix {
	n := len(g.Vertices)
	dim := m.Cfg.Dim
	s.rg = relGraphInto(s.rg, g)
	if cap(s.acts) < len(m.GCN)+1 {
		s.acts = make([]*tensor.Matrix, len(m.GCN)+1)
	}
	s.acts = s.acts[:len(m.GCN)+1]
	for i := range s.acts {
		s.acts[i] = ensureMat(s.acts[i], n, dim)
	}
	s.agg = ensureMat(s.agg, 1, dim)
	s.logits = ensureMat(s.logits, n, 1)
	m.features(g, tc, &s.fc, s.acts[0], bc)
	for i, l := range m.GCN {
		l.Infer(s.rg, s.acts[i], s.acts[i+1], s.agg)
	}
	m.Head.Forward(s.acts[len(m.GCN)], s.logits)
	return s.logits
}

// Predict returns the per-vertex covered probabilities for a CT graph.
func (m *Model) Predict(g *ctgraph.Graph, tc *TokenCache) []float64 {
	return m.PredictWith(g, tc, nil)
}

// PredictWith is Predict with an explicit scratch buffer. The returned
// slice is freshly allocated (it outlives the scratch); the fully
// allocation-free path is PredictInto.
func (m *Model) PredictWith(g *ctgraph.Graph, tc *TokenCache, s *Scratch) []float64 {
	return m.PredictInto(nil, g, tc, s, nil)
}

// PredictInto is the hot-path Predict: intermediates live in s (nil
// borrows one from a package pool), dst's capacity is reused for the
// result, and a non-nil bc supplies the CTI's precomputed
// schedule-independent features.
// With a warm scratch and a capacious dst the steady state performs zero
// allocations. The probabilities are bit-identical to Predict's for every
// (s, dst, bc) combination.
func (m *Model) PredictInto(dst []float64, g *ctgraph.Graph, tc *TokenCache, s *Scratch, bc *BaseContext) []float64 {
	if s == nil {
		s = scratchPool.Get().(*Scratch)
		defer scratchPool.Put(s)
	}
	logits := m.forward(g, tc, s, bc)
	if cap(dst) < logits.Rows {
		dst = make([]float64, logits.Rows)
	} else {
		dst = dst[:logits.Rows]
	}
	for i := range dst {
		dst[i] = tensor.Sigmoid(logits.At(i, 0))
	}
	return dst
}

// PredictAll scores many graphs, fanning out to at most workers goroutines
// (<= 0 selects GOMAXPROCS). Inference only reads model parameters, so the
// workers share the model; each owns a Scratch. The result is index-
// aligned with gs and bit-identical to calling Predict per graph.
func (m *Model) PredictAll(gs []*ctgraph.Graph, tc *TokenCache, workers int) [][]float64 {
	return m.PredictAllCtx(gs, tc, workers, nil)
}

// PredictAllCtx is PredictAll with a shared per-CTI BaseContext (nil is
// allowed; graphs not derived from the context's Base are computed in
// full). The context is read-only, so all workers share it.
func (m *Model) PredictAllCtx(gs []*ctgraph.Graph, tc *TokenCache, workers int, bc *BaseContext) [][]float64 {
	w := parallel.Workers(workers)
	scratches := make([]*Scratch, w)
	for i := range scratches {
		scratches[i] = scratchPool.Get().(*Scratch)
	}
	out, err := parallel.MapWorkers(w, len(gs), func(worker, i int) ([]float64, error) {
		return m.PredictInto(nil, gs[i], tc, scratches[worker], bc), nil
	})
	for _, s := range scratches {
		scratchPool.Put(s)
	}
	if err != nil {
		panic(err) // only a worker panic can land here; re-raise it
	}
	return out
}

// trainStep accumulates gradients for one example and returns its mean BCE
// loss, running the forward pass in s. The caller applies the optimiser
// step.
func (m *Model) trainStep(g *ctgraph.Graph, tc *TokenCache, y []bool, s *Scratch) float64 {
	logits := m.forward(g, tc, s, nil)
	n := logits.Rows
	if n == 0 {
		return 0
	}
	// Class-weighted BCE loss and dL/dlogit = w·(sigma(z) - y) / n.
	posW := m.Cfg.PosWeight
	if posW <= 0 {
		posW = 1
	}
	loss := 0.0
	dlogits := tensor.New(n, 1)
	inv := 1 / float64(n)
	for i := 0; i < n; i++ {
		z := logits.At(i, 0)
		p := tensor.Sigmoid(z)
		t, w := 0.0, 1.0
		if y[i] {
			t, w = 1, posW
		}
		loss += w * bce(p, t)
		dlogits.Set(i, 0, w*(p-t)*inv)
	}
	loss *= inv

	// Backward through head and GCN stack.
	dh := tensor.New(n, m.Cfg.Dim)
	m.Head.Backward(s.acts[len(m.GCN)], dlogits, dh)
	for l := len(m.GCN) - 1; l >= 0; l-- {
		dh = m.GCN[l].Backward(s.rg, s.acts[l], s.acts[l+1], dh)
	}
	m.backwardFeatures(g, tc, &s.fc, dh)
	return loss
}

// bce is the numerically clamped binary cross-entropy of p against t.
func bce(p, t float64) float64 {
	const eps = 1e-12
	if p < eps {
		p = eps
	}
	if p > 1-eps {
		p = 1 - eps
	}
	if t > 0.5 {
		return -math.Log(p)
	}
	return -math.Log(1 - p)
}
