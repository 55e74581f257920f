package nn

import (
	"math"

	"snowcat/internal/tensor"
	"snowcat/internal/xrand"
)

// AsmEncoder is the assembly-code embedding module of the PIC model — the
// stand-in for the paper's RoBERTa-on-assembly encoder (§3.2, and see
// DESIGN.md §2 for the substitution rationale). A basic block's embedding
// is the mean of its token embeddings; the token table is pretrained with
// a masked-language-model objective over the whole kernel's assembly and
// fine-tuned during PIC training, exactly the paper's training regime.
type AsmEncoder struct {
	Vocab *Vocab
	Emb   *Embedding
	// Out is the MLM output projection (vocab logits from a context
	// vector); only used during pretraining but serialised with the model
	// so pretraining can resume.
	Out *Dense
}

// NewAsmEncoder creates an encoder with the given embedding width.
func NewAsmEncoder(v *Vocab, dim int, rng *xrand.RNG) *AsmEncoder {
	return &AsmEncoder{
		Vocab: v,
		Emb:   NewEmbedding("asm.emb", v.Size(), dim, rng),
		Out:   NewDense("asm.out", dim, v.Size(), rng),
	}
}

// Dim returns the block-embedding width.
func (e *AsmEncoder) Dim() int { return e.Emb.Dim() }

// Params returns the learnable parameters (embedding table and MLM head).
func (e *AsmEncoder) Params() []*Param {
	return append(e.Emb.Params(), e.Out.Params()...)
}

// EncodeInto writes the block embedding (mean token embedding) into dst.
func (e *AsmEncoder) EncodeInto(tokenIDs []int, dst []float64) {
	e.Emb.MeanInto(tokenIDs, dst)
}

// PretrainStats reports one pretraining epoch's aggregate loss/accuracy.
type PretrainStats struct {
	Loss     float64
	Accuracy float64
	Samples  int
}

// Pretrain runs MLM pretraining: for each block, one random token is
// replaced by [MASK] and predicted from the mean embedding of the block.
// blocks is the tokenised kernel ([]tokenIDs per block). Returns per-epoch
// stats. Blocks with fewer than 2 tokens are skipped.
func (e *AsmEncoder) Pretrain(blocks [][]int, epochs int, lr float64, seed uint64) []PretrainStats {
	rng := xrand.New(seed)
	opt := NewAdam(lr)
	params := e.Params()
	var stats []PretrainStats

	dim := e.Dim()
	ctx := make([]float64, dim)
	dctx := make([]float64, dim)
	logits := tensor.New(1, e.Vocab.Size())
	dlogits := tensor.New(1, e.Vocab.Size())
	ctxMat := tensor.FromData(1, dim, ctx)
	dctxMat := tensor.FromData(1, dim, dctx)
	wt := make([]float64, dim*e.Vocab.Size()) // e.Out's Wᵀ scratch
	masked := make([]int, 0, 64)

	for ep := 0; ep < epochs; ep++ {
		st := PretrainStats{}
		order := rng.Perm(len(blocks))
		for _, bi := range order {
			toks := blocks[bi]
			if len(toks) < 2 {
				continue
			}
			pos := rng.Intn(len(toks))
			target := toks[pos]
			masked = masked[:0]
			masked = append(masked, toks...)
			masked[pos] = MaskID

			// Forward: context = mean embedding, logits = Dense(context).
			e.Emb.MeanInto(masked, ctx)
			e.Out.Forward(ctxMat, logits)

			// Softmax cross-entropy against the target token.
			row := logits.Row(0)
			maxv := row[0]
			for _, v := range row {
				if v > maxv {
					maxv = v
				}
			}
			sum := 0.0
			for _, v := range row {
				sum += math.Exp(v - maxv)
			}
			logZ := maxv + math.Log(sum)
			st.Loss += logZ - row[target]
			best := 0
			for i, v := range row {
				if v > row[best] {
					best = i
				}
			}
			if best == target {
				st.Accuracy++
			}
			st.Samples++

			// Backward: dlogits = softmax - onehot(target).
			drow := dlogits.Row(0)
			for i, v := range row {
				drow[i] = math.Exp(v - logZ)
			}
			drow[target] -= 1
			for i := range dctx {
				dctx[i] = 0
			}
			e.Out.Backward(ctxMat, dlogits, dctxMat, wt)
			e.Emb.AccumulateMeanGrad(masked, dctx)
			opt.Step(params)
		}
		if st.Samples > 0 {
			st.Loss /= float64(st.Samples)
			st.Accuracy /= float64(st.Samples)
		}
		stats = append(stats, st)
	}
	return stats
}
