package nn

import (
	"snowcat/internal/tensor"
	"snowcat/internal/xrand"
)

// Dense is a fully connected layer: out = x·W + b.
type Dense struct {
	W *Param // In×Out
	B *Param // 1×Out
}

// NewDense creates a Dense layer with Glorot-initialised weights.
func NewDense(name string, in, out int, rng *xrand.RNG) *Dense {
	return &Dense{
		W: NewParam(name+".W", in, out, rng),
		B: NewParam(name+".b", 1, out, nil),
	}
}

// Forward computes out = x·W + b. out must be x.Rows×Out.
func (d *Dense) Forward(x, out *tensor.Matrix) {
	tensor.MulInto(out, x, d.W.Matrix())
	out.AddRowVec(d.B.Val)
}

// Backward accumulates dW += xᵀ·dout and db += colsum(dout), and, when dx
// is non-nil, computes dx += dout·Wᵀ with wt (In·Out or longer) for Wᵀ.
func (d *Dense) Backward(x, dout, dx *tensor.Matrix, wt []float64) {
	tensor.MulATBAddInto(d.W.GradMatrix(), x, dout)
	dout.ColSumInto(d.B.Grad)
	if dx != nil {
		tensor.MulABTAddInto(dx, dout, d.W.Matrix(), wt)
	}
}

// Params returns the layer's learnable parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Embedding maps integer IDs to learned dense rows.
type Embedding struct {
	Table *Param // Vocab×Dim
}

// NewEmbedding creates a Vocab×Dim embedding table.
func NewEmbedding(name string, vocab, dim int, rng *xrand.RNG) *Embedding {
	return &Embedding{Table: NewParam(name, vocab, dim, rng)}
}

// Dim returns the embedding width.
func (e *Embedding) Dim() int { return e.Table.Cols }

// Vocab returns the table height.
func (e *Embedding) Vocab() int { return e.Table.Rows }

// Row returns the embedding vector of id (shared storage).
func (e *Embedding) Row(id int) []float64 { return e.Table.Matrix().Row(id) }

// MeanInto writes the mean embedding of ids into dst (length Dim). Empty
// ids leave dst zeroed.
func (e *Embedding) MeanInto(ids []int, dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	if len(ids) == 0 {
		return
	}
	m := e.Table.Matrix()
	for _, id := range ids {
		tensor.AXPY(1, m.Row(id), dst)
	}
	inv := 1 / float64(len(ids))
	for i := range dst {
		dst[i] *= inv
	}
}

// AccumulateMeanGrad backpropagates a gradient d(mean) into the rows of the
// table: each contributing row receives d/len(ids).
func (e *Embedding) AccumulateMeanGrad(ids []int, d []float64) {
	if len(ids) == 0 {
		return
	}
	g := e.Table.GradMatrix()
	inv := 1 / float64(len(ids))
	for _, id := range ids {
		tensor.AXPY(inv, d, g.Row(id))
	}
}

// AccumulateRowGrad adds d into the gradient of a single row.
func (e *Embedding) AccumulateRowGrad(id int, d []float64) {
	tensor.AXPY(1, d, e.Table.GradMatrix().Row(id))
}

// Params returns the learnable table.
func (e *Embedding) Params() []*Param { return []*Param{e.Table} }

// Vocab maps token strings to IDs. ID 0 is reserved for [UNK] and ID 1 for
// [MASK].
type Vocab struct {
	Tokens []string
	idx    map[string]int
}

// Reserved vocabulary entries.
const (
	UnkID  = 0
	MaskID = 1
)

// BuildVocab constructs a vocabulary from a token universe, deduplicating
// while preserving first-seen order after the reserved entries.
func BuildVocab(tokens []string) *Vocab {
	v := &Vocab{idx: make(map[string]int)}
	add := func(tok string) {
		if _, ok := v.idx[tok]; !ok {
			v.idx[tok] = len(v.Tokens)
			v.Tokens = append(v.Tokens, tok)
		}
	}
	add("[UNK]")
	add("[MASK]")
	for _, tok := range tokens {
		add(tok)
	}
	return v
}

// ID returns the token's ID, or UnkID for unknown tokens.
func (v *Vocab) ID(tok string) int {
	if id, ok := v.idx[tok]; ok {
		return id
	}
	return UnkID
}

// IDs converts a token sequence.
func (v *Vocab) IDs(toks []string) []int {
	out := make([]int, len(toks))
	for i, t := range toks {
		out[i] = v.ID(t)
	}
	return out
}

// Size returns the vocabulary size.
func (v *Vocab) Size() int { return len(v.Tokens) }

// Rebind restores the internal index after gob decoding (gob only carries
// the exported Tokens slice).
func (v *Vocab) Rebind() {
	v.idx = make(map[string]int, len(v.Tokens))
	for i, t := range v.Tokens {
		v.idx[t] = i
	}
}
