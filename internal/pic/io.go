package pic

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"os"

	"snowcat/internal/atomicfile"
	"snowcat/internal/ctgraph"
	"snowcat/internal/kernel"
	"snowcat/internal/nn"
)

// ErrModelShape reports a decoded model whose tensors do not fit its
// configuration: a missing component, a vocabulary without the reserved
// [UNK] and [MASK] entries, a parameter whose values do not fill
// Rows×Cols, a layer of the wrong shape, or a threshold outside [0,1].
// Such a model would otherwise decode cleanly and index-panic inside
// Predict. It also reports weights that could make Predict answer NaN: a
// non-finite value, or magnitudes whose products can overflow float64.
var ErrModelShape = errors.New("pic: model shape mismatch")

// ErrVocabMismatch reports a model whose vocabulary lacks a token of a
// kernel's blocks. Such a token reads the [UNK] embedding row, so the
// model would score that kernel on features it never trained with.
var ErrVocabMismatch = errors.New("pic: model vocabulary does not cover the kernel")

// maxActivation is the largest worst-case activation magnitude Decode
// accepts: far below math.MaxFloat64, so rounding in the bound itself
// cannot hide an overflow, and far above any trained model's.
const maxActivation = 1e300

// Encode serialises the model (architecture, weights with their Adam
// moments, vocabulary, tuned threshold) with encoding/gob. The model
// holds no other state: activations live in the caller's Scratch.
func (m *Model) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return nil, fmt.Errorf("pic: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode reconstructs a model serialised by Encode. A model whose shapes
// do not fit its configuration fails with an error matching ErrModelShape.
func Decode(data []byte) (*Model, error) {
	var m Model
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&m); err != nil {
		return nil, fmt.Errorf("pic: decode: %w", err)
	}
	if err := m.checkShapes(); err != nil {
		return nil, err
	}
	m.Vocab.Rebind()
	// Rebuild the cached parameter views gob left behind, before the model
	// can reach the concurrent inference paths.
	for _, p := range m.Params() {
		p.Rebind()
	}
	if m.DFHead != nil {
		for _, p := range m.DFHead.Params() {
			p.Rebind()
		}
	}
	return &m, nil
}

// checkShapes verifies that every tensor the inference and training paths
// index fits the model's configuration.
func (m *Model) checkShapes() error {
	d := m.Cfg.Dim
	if d <= 0 || m.Vocab == nil || m.Enc == nil || m.Enc.Emb == nil || m.Enc.Out == nil ||
		m.VType == nil || m.HintRole == nil || m.HintPos == nil || m.HintCtx == nil || m.Head == nil {
		return fmt.Errorf("%w: Dim %d or a missing component", ErrModelShape, d)
	}
	// Every token outside the vocabulary reads row UnkID of the embedding
	// table, so the reserved rows must exist.
	if toks := m.Vocab.Tokens; len(toks) <= nn.MaskID || toks[nn.UnkID] != "[UNK]" || toks[nn.MaskID] != "[MASK]" {
		return fmt.Errorf("%w: vocabulary lacks the reserved [UNK] and [MASK] entries", ErrModelShape)
	}
	type want struct {
		p          *nn.Param
		rows, cols int
	}
	ws := []want{
		{m.Enc.Emb.Table, m.Vocab.Size(), d},
		{m.VType.Table, ctgraph.NumVertexTypes, d},
		{m.HintRole.Table, numHintRoles, d},
		{m.HintPos.Table, maxHintSlots * posBuckets, d},
		{m.HintCtx.W, d, d}, {m.HintCtx.B, 1, d},
		{m.Head.W, d, 1}, {m.Head.B, 1, 1},
	}
	for i, l := range m.GCN {
		if l == nil || l.In != d || l.Out != d || len(l.WRel) != NumRelations {
			return fmt.Errorf("%w: GCN layer %d is not %dx%d with %d relations", ErrModelShape, i, d, d, NumRelations)
		}
		ws = append(ws, want{l.WSelf, d, d}, want{l.B, 1, d})
		for _, w := range l.WRel {
			ws = append(ws, want{w, d, d})
		}
	}
	if m.DFHead != nil {
		ws = append(ws, want{m.DFHead.W, 2 * d, 1}, want{m.DFHead.B, 1, 1})
	}
	for _, w := range ws {
		if w.p == nil {
			return fmt.Errorf("%w: missing parameter", ErrModelShape)
		}
		if w.p.Rows != w.rows || w.p.Cols != w.cols {
			return fmt.Errorf("%w: %s is %dx%d, want %dx%d", ErrModelShape, w.p.Name, w.p.Rows, w.p.Cols, w.rows, w.cols)
		}
	}
	// Every parameter, including the pretraining-only encoder head, must
	// hold exactly Rows×Cols values.
	ps := m.Params()
	if m.DFHead != nil {
		ps = append(ps, m.DFHead.Params()...)
	}
	for _, p := range ps {
		if p == nil {
			return fmt.Errorf("%w: missing parameter", ErrModelShape)
		}
		if p.Rows < 0 || p.Cols < 0 || len(p.Val) != p.Rows*p.Cols {
			return fmt.Errorf("%w: %s holds %d values, not %dx%d", ErrModelShape, p.Name, len(p.Val), p.Rows, p.Cols)
		}
	}
	if !(m.Threshold >= 0 && m.Threshold <= 1) {
		return fmt.Errorf("%w: threshold %v outside [0,1]", ErrModelShape, m.Threshold)
	}
	return m.checkRange(ps)
}

// checkRange verifies that inference cannot overflow into NaN: every
// parameter is finite, and a worst-case bound on every stage's activations
// stays below maxActivation. A stage's bound is its input bound times its
// widest row of |weights|; GCN aggregation averages over in-edges, so no
// bound depends on the graph.
func (m *Model) checkRange(ps []*nn.Param) error {
	for _, p := range ps {
		for _, v := range p.Val {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: %s holds a non-finite value", ErrModelShape, p.Name)
			}
		}
	}
	amax := func(ps ...*nn.Param) (a float64) {
		for _, p := range ps {
			for _, v := range p.Val {
				if v := math.Abs(v); v > a {
					a = v
				}
			}
		}
		return a
	}
	d := float64(m.Cfg.Dim)
	emb := amax(m.Enc.Emb.Table)
	ctx := d*(emb+maxHintSlots*amax(m.HintPos.Table))*amax(m.HintCtx.W) + amax(m.HintCtx.B)
	h := emb + amax(m.VType.Table) + amax(m.HintRole.Table) + ctx
	peak := max(ctx, h) // max keeps an Inf or NaN bound
	for _, l := range m.GCN {
		h = d*h*(amax(l.WSelf)+float64(len(l.WRel))*amax(l.WRel...)) + amax(l.B)
		peak = max(peak, h)
	}
	peak = max(peak, d*h*amax(m.Head.W)+amax(m.Head.B))
	if !(peak <= maxActivation) {
		return fmt.Errorf("%w: weights can overflow inference (activation bound %g)", ErrModelShape, peak)
	}
	return nil
}

// CheckVocab returns an error matching ErrVocabMismatch when any token of
// k's blocks maps to [UNK] under the model's vocabulary. Every model New
// builds covers every kernel the generator emits (BaseVocab spans the
// ISA), so only a model built from a narrower vocabulary fails it.
func (m *Model) CheckVocab(k *kernel.Kernel) error {
	unknown, total, first := 0, 0, ""
	for _, b := range k.Blocks {
		for _, tok := range b.TokenText() {
			total++
			if m.Vocab.ID(tok) == nn.UnkID {
				if unknown == 0 {
					first = tok
				}
				unknown++
			}
		}
	}
	if unknown > 0 {
		return fmt.Errorf("%w: %d of %d block tokens of kernel %s read [UNK] (first %q)",
			ErrVocabMismatch, unknown, total, k.Version, first)
	}
	return nil
}

// SaveFile writes the model to path, atomically: a failed save leaves the
// previous file intact.
func (m *Model) SaveFile(path string) error {
	data, err := m.Encode()
	if err != nil {
		return err
	}
	if err := atomicfile.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("pic: save: %w", err)
	}
	return nil
}

// LoadFile reads a model written by SaveFile.
func LoadFile(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pic: load: %w", err)
	}
	return Decode(data)
}

// Clone returns a deep copy of the model via serialisation; used to fork a
// base model before fine-tuning variants (§5.4's PIC-6.ft.* family).
func (m *Model) Clone() (*Model, error) {
	data, err := m.Encode()
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
