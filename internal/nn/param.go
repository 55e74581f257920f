// Package nn is the neural-network substrate of the PIC model: learnable
// parameters with Adam state, dense and embedding layers, a relational
// graph-convolution layer, and a masked-language-model pretrainer for the
// assembly token encoder.
//
// The paper trains a RoBERTa assembly encoder plus a PyTorch-Geometric GCN;
// this reproduction implements the same model family from scratch with
// hand-written forward/backward passes (see DESIGN.md §2 for the encoder
// substitution). Everything is deterministic given the seeds.
package nn

import (
	"fmt"
	"math"

	"snowcat/internal/tensor"
	"snowcat/internal/xrand"
)

// Param is one learnable weight matrix (or vector, Rows==1) together with
// its gradient accumulator and Adam moments. Exported fields serialise
// with encoding/gob; the cached matrix views do not — call Rebind after
// decoding (pic.Decode does).
type Param struct {
	Name       string
	Rows, Cols int
	Val        []float64
	Grad       []float64
	M, V       []float64 // Adam first/second moments

	valView, gradView tensor.Matrix // cached views over Val/Grad
}

// NewParam allocates a parameter; when rng is non-nil the values are
// Glorot-initialised, otherwise zero.
func NewParam(name string, rows, cols int, rng *xrand.RNG) *Param {
	p := &Param{
		Name: name, Rows: rows, Cols: cols,
		Val:  make([]float64, rows*cols),
		Grad: make([]float64, rows*cols),
		M:    make([]float64, rows*cols),
		V:    make([]float64, rows*cols),
	}
	p.Rebind()
	if rng != nil {
		p.Matrix().Randomize(rng)
	}
	return p
}

// Rebind (re)builds the cached matrix views. NewParam calls it; decoders
// must call it after gob reconstruction, before any concurrent use —
// Matrix/GradMatrix self-heal a missing view, but lazily, which is only
// safe single-threaded.
func (p *Param) Rebind() {
	p.valView = tensor.Matrix{Rows: p.Rows, Cols: p.Cols, Data: p.Val}
	p.gradView = tensor.Matrix{Rows: p.Rows, Cols: p.Cols, Data: p.Grad}
}

// Matrix returns the value as a matrix view (shared storage). The view is
// cached, so the inference hot path calls this allocation-free.
func (p *Param) Matrix() *tensor.Matrix {
	if p.valView.Data == nil && p.Val != nil {
		p.Rebind()
	}
	return &p.valView
}

// GradMatrix returns the gradient as a matrix view (shared storage).
func (p *Param) GradMatrix() *tensor.Matrix {
	if p.gradView.Data == nil && p.Grad != nil {
		p.Rebind()
	}
	return &p.gradView
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	for i := range p.Grad {
		p.Grad[i] = 0
	}
}

// NumValues returns the parameter count.
func (p *Param) NumValues() int { return len(p.Val) }

// Adam is the Adam optimizer (Kingma & Ba) with optional gradient clipping.
type Adam struct {
	LR       float64
	Beta1    float64
	Beta2    float64
	Eps      float64
	ClipNorm float64 // global-norm clip; 0 disables
	t        int
}

// NewAdam returns Adam with standard hyperparameters and the given
// learning rate.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, ClipNorm: 5}
}

// Step applies one update to all params from their accumulated gradients
// and clears the gradients.
func (a *Adam) Step(params []*Param) {
	a.t++
	if a.ClipNorm > 0 {
		norm := 0.0
		for _, p := range params {
			for _, g := range p.Grad {
				norm += g * g
			}
		}
		norm = math.Sqrt(norm)
		if norm > a.ClipNorm {
			scale := a.ClipNorm / norm
			for _, p := range params {
				for i := range p.Grad {
					p.Grad[i] *= scale
				}
			}
		}
	}
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		for i, g := range p.Grad {
			p.M[i] = a.Beta1*p.M[i] + (1-a.Beta1)*g
			p.V[i] = a.Beta2*p.V[i] + (1-a.Beta2)*g*g
			mHat := p.M[i] / bc1
			vHat := p.V[i] / bc2
			p.Val[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
		}
		p.ZeroGrad()
	}
}

// CheckFinite returns an error if any parameter value is NaN or Inf —
// a guard the training loops run periodically.
func CheckFinite(params []*Param) error {
	for _, p := range params {
		for i, v := range p.Val {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("nn: param %s[%d] is %v", p.Name, i, v)
			}
		}
	}
	return nil
}
