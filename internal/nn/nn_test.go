package nn

import (
	"math"
	"testing"

	"snowcat/internal/tensor"
	"snowcat/internal/xrand"
)

func TestParamInit(t *testing.T) {
	p := NewParam("w", 3, 4, xrand.New(1))
	if p.NumValues() != 12 || len(p.Grad) != 12 || len(p.M) != 12 {
		t.Fatal("bad param shape")
	}
	nz := 0
	for _, v := range p.Val {
		if v != 0 {
			nz++
		}
	}
	if nz == 0 {
		t.Fatal("no init noise")
	}
	z := NewParam("z", 2, 2, nil)
	for _, v := range z.Val {
		if v != 0 {
			t.Fatal("nil-rng param should be zero")
		}
	}
}

func TestParamViewsShareStorage(t *testing.T) {
	p := NewParam("w", 2, 2, nil)
	p.Matrix().Set(1, 1, 5)
	if p.Val[3] != 5 {
		t.Fatal("Matrix not a view")
	}
	p.GradMatrix().Set(0, 0, 2)
	if p.Grad[0] != 2 {
		t.Fatal("GradMatrix not a view")
	}
	p.ZeroGrad()
	if p.Grad[0] != 0 {
		t.Fatal("ZeroGrad")
	}
}

func TestAdamConvergesQuadratic(t *testing.T) {
	// Minimise (x-3)^2: gradient 2(x-3).
	p := NewParam("x", 1, 1, nil)
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		p.Grad[0] = 2 * (p.Val[0] - 3)
		opt.Step([]*Param{p})
	}
	if math.Abs(p.Val[0]-3) > 0.01 {
		t.Fatalf("Adam converged to %v, want 3", p.Val[0])
	}
}

func TestAdamClipsGradients(t *testing.T) {
	p := NewParam("x", 1, 1, nil)
	opt := NewAdam(0.001)
	opt.ClipNorm = 1
	p.Grad[0] = 1e9
	before := p.Val[0]
	opt.Step([]*Param{p})
	if math.Abs(p.Val[0]-before) > 0.1 {
		t.Fatalf("clip failed: moved %v", p.Val[0]-before)
	}
}

func TestCheckFinite(t *testing.T) {
	p := NewParam("x", 1, 2, nil)
	if err := CheckFinite([]*Param{p}); err != nil {
		t.Fatal(err)
	}
	p.Val[1] = math.NaN()
	if CheckFinite([]*Param{p}) == nil {
		t.Fatal("NaN not caught")
	}
}

func TestDenseForward(t *testing.T) {
	d := NewDense("d", 2, 2, nil)
	copy(d.W.Val, []float64{1, 2, 3, 4})
	copy(d.B.Val, []float64{10, 20})
	x := tensor.FromData(1, 2, []float64{1, 1})
	out := tensor.New(1, 2)
	d.Forward(x, out)
	if out.At(0, 0) != 14 || out.At(0, 1) != 26 {
		t.Fatalf("forward = %v", out.Data)
	}
}

// numGrad computes a centred numerical derivative of f w.r.t. v[i].
func numGrad(f func() float64, v []float64, i int) float64 {
	const h = 1e-5
	old := v[i]
	v[i] = old + h
	fp := f()
	v[i] = old - h
	fm := f()
	v[i] = old
	return (fp - fm) / (2 * h)
}

func TestDenseGradCheck(t *testing.T) {
	rng := xrand.New(7)
	d := NewDense("d", 3, 2, rng)
	x := tensor.New(2, 3)
	x.Randomize(rng)
	target := tensor.New(2, 2)
	target.Randomize(rng)

	loss := func() float64 {
		out := tensor.New(2, 2)
		d.Forward(x, out)
		s := 0.0
		for i := range out.Data {
			diff := out.Data[i] - target.Data[i]
			s += 0.5 * diff * diff
		}
		return s
	}
	// Analytic gradients.
	out := tensor.New(2, 2)
	d.Forward(x, out)
	dout := tensor.New(2, 2)
	for i := range out.Data {
		dout.Data[i] = out.Data[i] - target.Data[i]
	}
	dx := tensor.New(2, 3)
	d.Backward(x, dout, dx)

	for i := range d.W.Val {
		want := numGrad(loss, d.W.Val, i)
		if math.Abs(d.W.Grad[i]-want) > 1e-6 {
			t.Fatalf("dW[%d] = %v, numeric %v", i, d.W.Grad[i], want)
		}
	}
	for i := range d.B.Val {
		want := numGrad(loss, d.B.Val, i)
		if math.Abs(d.B.Grad[i]-want) > 1e-6 {
			t.Fatalf("db[%d] = %v, numeric %v", i, d.B.Grad[i], want)
		}
	}
	for i := range x.Data {
		want := numGrad(loss, x.Data, i)
		if math.Abs(dx.Data[i]-want) > 1e-6 {
			t.Fatalf("dx[%d] = %v, numeric %v", i, dx.Data[i], want)
		}
	}
}

func TestEmbeddingMean(t *testing.T) {
	e := NewEmbedding("e", 4, 2, nil)
	copy(e.Table.Val, []float64{
		1, 2,
		3, 4,
		5, 6,
		7, 8,
	})
	dst := make([]float64, 2)
	e.MeanInto([]int{0, 2}, dst)
	if dst[0] != 3 || dst[1] != 4 {
		t.Fatalf("mean = %v", dst)
	}
	e.MeanInto(nil, dst)
	if dst[0] != 0 || dst[1] != 0 {
		t.Fatal("empty mean should zero dst")
	}
}

func TestEmbeddingMeanGrad(t *testing.T) {
	e := NewEmbedding("e", 3, 2, nil)
	e.AccumulateMeanGrad([]int{0, 0, 1}, []float64{3, 6})
	// Row 0 contributes twice: grad = 2 * (1/3) * d.
	g := e.Table.GradMatrix()
	if math.Abs(g.At(0, 0)-2) > 1e-9 || math.Abs(g.At(1, 0)-1) > 1e-9 {
		t.Fatalf("grads = %v", e.Table.Grad)
	}
	if g.At(2, 0) != 0 {
		t.Fatal("untouched row has gradient")
	}
}

func TestVocab(t *testing.T) {
	v := BuildVocab([]string{"mov", "add", "mov", "r1"})
	if v.Size() != 5 { // UNK, MASK, mov, add, r1
		t.Fatalf("size = %d", v.Size())
	}
	if v.ID("mov") != 2 || v.ID("nope") != UnkID {
		t.Fatal("ID lookup")
	}
	if v.ID("[MASK]") != MaskID {
		t.Fatal("MASK id")
	}
	ids := v.IDs([]string{"add", "zzz"})
	if ids[0] != 3 || ids[1] != UnkID {
		t.Fatalf("IDs = %v", ids)
	}
	v2 := &Vocab{Tokens: v.Tokens}
	v2.Rebind()
	if v2.ID("add") != v.ID("add") {
		t.Fatal("Rebind broken")
	}
}

func buildTestGraph() *RelGraph {
	// 4 nodes, 2 relations. r0: 0->1, 2->1 (node 1 has indeg 2). r1: 1->3.
	g := NewRelGraph(4, 2)
	g.AddEdge(0, 0, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 1, 3)
	g.Finalize()
	return g
}

func TestRelGraphNorm(t *testing.T) {
	g := buildTestGraph()
	if g.Norm[0][1] != 0.5 {
		t.Fatalf("norm = %v", g.Norm[0][1])
	}
	if g.Norm[1][3] != 1 {
		t.Fatalf("norm = %v", g.Norm[1][3])
	}
	if g.Norm[0][0] != 0 {
		t.Fatal("no-in-edge node should have zero norm")
	}
}

// infer runs l.Infer into freshly allocated buffers.
func infer(l *GCNLayer, g *RelGraph, h *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(g.NumNodes, l.Out)
	l.Infer(g, h, out, tensor.New(1, l.In))
	return out
}

func TestGCNForwardAggregation(t *testing.T) {
	g := buildTestGraph()
	l := NewGCNLayer("l", 2, 2, 2, nil)
	// Identity-ish weights: WSelf = I, WRel[0] = I, WRel[1] = 0.
	copy(l.WSelf.Val, []float64{1, 0, 0, 1})
	copy(l.WRel[0].Val, []float64{1, 0, 0, 1})
	h := tensor.FromData(4, 2, []float64{
		1, 0,
		0, 0,
		3, 0,
		0, 0,
	})
	out := infer(l, g, h)
	// Node 1 receives mean(h0, h2) = (2, 0) plus its own (0,0).
	if math.Abs(out.At(1, 0)-2) > 1e-9 {
		t.Fatalf("node 1 out = %v", out.Row(1))
	}
	// Node 0 receives nothing: only its self term.
	if math.Abs(out.At(0, 0)-1) > 1e-9 {
		t.Fatalf("node 0 out = %v", out.Row(0))
	}
}

func TestGCNGradCheck(t *testing.T) {
	rng := xrand.New(11)
	g := buildTestGraph()
	l := NewGCNLayer("l", 3, 2, 2, rng)
	h := tensor.New(4, 3)
	h.Randomize(rng)
	target := tensor.New(4, 2)
	target.Randomize(rng)

	loss := func() float64 {
		out := infer(l, g, h)
		s := 0.0
		for i := range out.Data {
			diff := out.Data[i] - target.Data[i]
			s += 0.5 * diff * diff
		}
		return s
	}

	out := infer(l, g, h)
	dout := tensor.New(4, 2)
	for i := range out.Data {
		dout.Data[i] = out.Data[i] - target.Data[i]
	}
	dh := l.Backward(g, h, out, dout)

	check := func(name string, val, grad []float64) {
		for i := range val {
			want := numGrad(loss, val, i)
			if math.Abs(grad[i]-want) > 1e-5 {
				t.Fatalf("%s[%d] = %v, numeric %v", name, i, grad[i], want)
			}
		}
	}
	check("WSelf", l.WSelf.Val, l.WSelf.Grad)
	check("b", l.B.Val, l.B.Grad)
	for r := range l.WRel {
		check(l.WRel[r].Name, l.WRel[r].Val, l.WRel[r].Grad)
	}
	check("h", h.Data, dh.Data)
}

func TestGCNStackGradCheck(t *testing.T) {
	// Two stacked layers: verifies gradient flow through the chain.
	rng := xrand.New(13)
	g := buildTestGraph()
	l1 := NewGCNLayer("l1", 2, 3, 2, rng)
	l2 := NewGCNLayer("l2", 3, 1, 2, rng)
	h := tensor.New(4, 2)
	h.Randomize(rng)

	loss := func() float64 {
		out := infer(l2, g, infer(l1, g, h))
		s := 0.0
		for _, v := range out.Data {
			s += 0.5 * v * v
		}
		return s
	}

	h1 := infer(l1, g, h)
	out := infer(l2, g, h1)
	dout := tensor.New(4, 1)
	copy(dout.Data, out.Data)
	dh := l1.Backward(g, h, h1, l2.Backward(g, h1, out, dout))

	for i := range h.Data {
		want := numGrad(loss, h.Data, i)
		if math.Abs(dh.Data[i]-want) > 1e-5 {
			t.Fatalf("dh[%d] = %v, numeric %v", i, dh.Data[i], want)
		}
	}
	for i := range l1.WSelf.Val {
		want := numGrad(loss, l1.WSelf.Val, i)
		if math.Abs(l1.WSelf.Grad[i]-want) > 1e-5 {
			t.Fatalf("l1.WSelf[%d] analytic %v numeric %v", i, l1.WSelf.Grad[i], want)
		}
	}
}

func TestAsmEncoderPretrainLearns(t *testing.T) {
	// A toy corpus with strong co-occurrence: the encoder should beat
	// uniform-guess accuracy (1/vocab) by a wide margin after pretraining.
	v := BuildVocab([]string{"load", "r1", "[g]", "store", "r2", "ret"})
	enc := NewAsmEncoder(v, 8, xrand.New(3))
	blocks := [][]int{}
	for i := 0; i < 30; i++ {
		blocks = append(blocks,
			v.IDs([]string{"load", "r1", "[g]"}),
			v.IDs([]string{"store", "[g]", "r2"}),
			v.IDs([]string{"ret", "ret"}),
		)
	}
	stats := enc.Pretrain(blocks, 8, 0.01, 42)
	last := stats[len(stats)-1]
	if last.Samples == 0 {
		t.Fatal("no samples")
	}
	if last.Accuracy < 0.4 {
		t.Fatalf("MLM accuracy %v too low", last.Accuracy)
	}
	if stats[0].Loss <= last.Loss-1e9 {
		t.Fatal("loss did not decrease")
	}
	if err := CheckFinite(enc.Params()); err != nil {
		t.Fatal(err)
	}
}

func TestAsmEncoderDeterministic(t *testing.T) {
	v := BuildVocab([]string{"a", "b", "c"})
	e1 := NewAsmEncoder(v, 4, xrand.New(9))
	e2 := NewAsmEncoder(v, 4, xrand.New(9))
	blocks := [][]int{v.IDs([]string{"a", "b"}), v.IDs([]string{"b", "c"})}
	e1.Pretrain(blocks, 3, 0.01, 5)
	e2.Pretrain(blocks, 3, 0.01, 5)
	for i := range e1.Emb.Table.Val {
		if e1.Emb.Table.Val[i] != e2.Emb.Table.Val[i] {
			t.Fatal("pretraining not deterministic")
		}
	}
}

func TestEncodeInto(t *testing.T) {
	v := BuildVocab([]string{"a"})
	e := NewAsmEncoder(v, 4, xrand.New(1))
	dst := make([]float64, 4)
	e.EncodeInto(v.IDs([]string{"a", "a"}), dst)
	row := e.Emb.Row(v.ID("a"))
	for i := range dst {
		if math.Abs(dst[i]-row[i]) > 1e-12 {
			t.Fatal("mean of identical tokens should equal the token embedding")
		}
	}
}

func BenchmarkGCNInfer(b *testing.B) {
	rng := xrand.New(3)
	g := NewRelGraph(256, 12)
	for i := 0; i < 1024; i++ {
		g.AddEdge(rng.Intn(12), int32(rng.Intn(256)), int32(rng.Intn(256)))
	}
	g.Finalize()
	l := NewGCNLayer("b", 32, 32, 12, rng)
	h := tensor.New(256, 32)
	h.Randomize(rng)
	out := tensor.New(256, 32)
	agg := tensor.New(1, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Infer(g, h, out, agg)
	}
}

func BenchmarkGCNBackward(b *testing.B) {
	rng := xrand.New(5)
	g := NewRelGraph(256, 12)
	for i := 0; i < 1024; i++ {
		g.AddEdge(rng.Intn(12), int32(rng.Intn(256)), int32(rng.Intn(256)))
	}
	g.Finalize()
	l := NewGCNLayer("b", 32, 32, 12, rng)
	h := tensor.New(256, 32)
	h.Randomize(rng)
	out := infer(l, g, h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := tensor.New(256, 32)
		copy(d.Data, out.Data)
		l.Backward(g, h, out, d)
	}
}

func TestGCNInferMatchesForward(t *testing.T) {
	// Infer must be bit-identical to the reference edge-list Forward
	// (refGCN), including when its buffers are reused across calls with
	// stale contents.
	g := buildTestGraph()
	rng := xrand.New(99)
	l := NewGCNLayer("l", 3, 3, 2, rng)
	h := tensor.New(4, 3)
	h.Randomize(rng)

	want := (&refGCN{GCNLayer: l}).Forward(g, h)
	out := tensor.New(4, 3)
	agg := tensor.New(4, 3)
	for trial := 0; trial < 2; trial++ { // second trial reuses dirty buffers
		l.Infer(g, h, out, agg)
		for i := range want.Data {
			if out.Data[i] != want.Data[i] {
				t.Fatalf("trial %d: Infer[%d] = %v, reference Forward = %v", trial, i, out.Data[i], want.Data[i])
			}
		}
	}
}
