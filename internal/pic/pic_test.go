package pic

import (
	"errors"
	"math"
	"path/filepath"
	"testing"

	"snowcat/internal/cfg"
	"snowcat/internal/ctgraph"
	"snowcat/internal/kernel"
	"snowcat/internal/nn"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
)

// tinyCfg keeps unit-test training fast.
func tinyCfg(seed uint64) Config {
	return Config{Dim: 12, Layers: 2, LR: 3e-3, Epochs: 2, Seed: seed, PosWeight: 8}
}

// collectExamples builds a small labelled dataset without importing the
// dataset package (which depends on pic).
func collectExamples(t *testing.T, k *kernel.Kernel, seed uint64, ctis, inter int) []*Example {
	t.Helper()
	gen := syz.NewGenerator(k, seed)
	builder := ctgraph.NewBuilder(k, cfg.Build(k))
	var out []*Example
	for i := 0; i < ctis; i++ {
		a, b := gen.Generate(), gen.Generate()
		cti := ski.CTI{ID: int64(i), A: a, B: b}
		pa, err := syz.Run(k, a)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := syz.Run(k, b)
		if err != nil {
			t.Fatal(err)
		}
		sampler := ski.NewSampler(pa, pb, seed+uint64(i))
		seen := map[string]bool{}
		for j := 0; j < inter; j++ {
			sched, ok := sampler.NextUnique(seen, 50)
			if !ok {
				break
			}
			res, err := ski.Execute(k, cti, sched)
			if err != nil {
				t.Fatal(err)
			}
			g := builder.Build(cti, pa, pb, sched)
			out = append(out, &Example{G: g, Y: ctgraph.Labels(g, res)})
		}
	}
	return out
}

func TestBaseVocabCoversKernel(t *testing.T) {
	v := BaseVocab()
	k := kernel.Generate(kernel.SmallConfig(1))
	for _, b := range k.Blocks {
		for _, tok := range b.TokenText() {
			if v.ID(tok) == 0 { // UnkID
				t.Fatalf("token %q not in base vocab", tok)
			}
		}
	}
}

func TestNewModelShape(t *testing.T) {
	m := New(tinyCfg(1))
	if len(m.GCN) != 2 {
		t.Fatalf("layers = %d", len(m.GCN))
	}
	if m.NumParams() == 0 {
		t.Fatal("no parameters")
	}
	if m.Threshold != 0.5 {
		t.Fatalf("default threshold %v", m.Threshold)
	}
}

func TestPredictShapeAndRange(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(3))
	m := New(tinyCfg(2))
	tc := NewTokenCache(k, m.Vocab)
	exs := collectExamples(t, k, 4, 3, 2)
	for _, ex := range exs {
		probs := m.Predict(ex.G, tc)
		if len(probs) != len(ex.G.Vertices) {
			t.Fatal("prediction length mismatch")
		}
		for _, p := range probs {
			if p < 0 || p > 1 || math.IsNaN(p) {
				t.Fatalf("probability %v out of range", p)
			}
		}
	}
}

func TestPredictDeterministic(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(5))
	m := New(tinyCfg(4))
	tc := NewTokenCache(k, m.Vocab)
	exs := collectExamples(t, k, 6, 2, 2)
	p1 := m.Predict(exs[0].G, tc)
	p2 := m.Predict(exs[0].G, tc)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("prediction not deterministic")
		}
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(7))
	m := New(tinyCfg(6))
	tc := NewTokenCache(k, m.Vocab)
	exs := collectExamples(t, k, 8, 12, 4)
	cfg := m.Cfg
	cfg.Epochs = 3
	m.Cfg = cfg
	stats, err := m.Train(exs, tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("stats = %d epochs", len(stats))
	}
	if stats[2].Loss >= stats[0].Loss {
		t.Fatalf("loss did not decrease: %v -> %v", stats[0].Loss, stats[2].Loss)
	}
}

func TestTrainingDeterministic(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(9))
	exs := collectExamples(t, k, 10, 6, 2)
	run := func() float64 {
		m := New(tinyCfg(8))
		tc := NewTokenCache(k, m.Vocab)
		stats, err := m.Train(exs, tc)
		if err != nil {
			t.Fatal(err)
		}
		return stats[len(stats)-1].Loss
	}
	if run() != run() {
		t.Fatal("training not deterministic")
	}
}

func TestLearnsSignal(t *testing.T) {
	// The trained model must rank URB coverage better than chance: mean AP
	// on held-out graphs above the positive base rate by a clear margin.
	k := kernel.Generate(kernel.SmallConfig(7))
	m := New(tinyCfg(10))
	tc := NewTokenCache(k, m.Vocab)
	m.Pretrain(tc, 1, 12)
	trainExs := collectExamples(t, k, 14, 30, 8)
	evalExs := collectExamples(t, k, 99, 15, 8)
	if _, err := m.Train(trainExs, tc); err != nil {
		t.Fatal(err)
	}
	m.Tune(trainExs, tc)
	rep := EvaluateScorer(m.AsScorer(tc), evalExs, m.Threshold, URBOnly)
	if rep.Graphs == 0 {
		t.Fatal("no graphs evaluated")
	}
	if rep.AP < 0.2 {
		t.Fatalf("URB AP %.3f: model learned nothing", rep.AP)
	}
	if rep.Recall == 0 {
		t.Fatal("zero recall after threshold tuning")
	}
}

func TestTuneSetsThreshold(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(13))
	m := New(tinyCfg(12))
	tc := NewTokenCache(k, m.Vocab)
	exs := collectExamples(t, k, 15, 8, 3)
	if _, err := m.Train(exs, tc); err != nil {
		t.Fatal(err)
	}
	th := m.Tune(exs, tc)
	if th != m.Threshold {
		t.Fatal("Tune did not store the threshold")
	}
	if th < 0 || th > 1 {
		t.Fatalf("threshold %v out of range", th)
	}
	labels := m.PredictLabels(exs[0].G, tc)
	probs := m.Predict(exs[0].G, tc)
	for i := range labels {
		if labels[i] != (probs[i] >= th) {
			t.Fatal("PredictLabels inconsistent with threshold")
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(15))
	m := New(tinyCfg(14))
	tc := NewTokenCache(k, m.Vocab)
	exs := collectExamples(t, k, 16, 4, 2)
	if _, err := m.Train(exs, tc); err != nil {
		t.Fatal(err)
	}
	m.Threshold = 0.37

	path := filepath.Join(t.TempDir(), "model.gob")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Threshold != 0.37 || m2.Cfg != m.Cfg {
		t.Fatal("config/threshold lost in round trip")
	}
	tc2 := NewTokenCache(k, m2.Vocab)
	p1 := m.Predict(exs[0].G, tc)
	p2 := m2.Predict(exs[0].G, tc2)
	for i := range p1 {
		if math.Abs(p1[i]-p2[i]) > 1e-12 {
			t.Fatal("loaded model predicts differently")
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.gob")); err == nil {
		t.Fatal("expected error")
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a gob")); err == nil {
		t.Fatal("expected error")
	}
}

// TestDecodeRejectsMisshapedModel encodes models whose tensors do not fit
// their configuration, or whose weights would score NaN, and requires
// Decode to fail with ErrModelShape instead of returning a model that
// index-panics or answers NaN inside Predict.
func TestDecodeRejectsMisshapedModel(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(m *Model)
	}{
		{"truncated GCN weight", func(m *Model) {
			w := m.GCN[0].WSelf
			w.Val = w.Val[:len(w.Val)-1]
		}},
		{"GCN layer narrower than Dim", func(m *Model) {
			m.GCN[1] = nn.NewGCNLayer("gcn1", m.Cfg.Dim-1, m.Cfg.Dim, NumRelations, nil)
		}},
		{"missing relation weight", func(m *Model) {
			m.GCN[0].WRel = m.GCN[0].WRel[:NumRelations-1]
		}},
		{"head not Dim x 1", func(m *Model) { m.Head = nn.NewDense("head", m.Cfg.Dim, 2, nil) }},
		{"empty vocabulary", func(m *Model) {
			m.Vocab.Tokens = nil
			m.Enc.Emb.Table = nn.NewParam("asm.emb", 0, m.Cfg.Dim, nil)
		}},
		{"NaN weight", func(m *Model) { m.Head.W.Val[0] = math.NaN() }},
		{"infinite weight", func(m *Model) { m.GCN[0].WSelf.Val[0] = math.Inf(-1) }},
		{"weights that overflow", func(m *Model) {
			for i := range m.GCN[0].WSelf.Val {
				m.GCN[0].WSelf.Val[i] = 1e300
			}
		}},
		{"threshold above 1", func(m *Model) { m.Threshold = 1.5 }},
		{"NaN threshold", func(m *Model) { m.Threshold = math.NaN() }},
	}
	for _, c := range cases {
		m := New(tinyCfg(17))
		c.mutate(m)
		data, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(data); !errors.Is(err, ErrModelShape) {
			t.Errorf("%s: Decode error %v, want ErrModelShape", c.name, err)
		}
	}
	data, err := New(tinyCfg(17)).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err != nil {
		t.Fatalf("well-formed model rejected: %v", err)
	}
}

func TestCloneIndependent(t *testing.T) {
	m := New(tinyCfg(16))
	c, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	c.Head.W.Val[0] += 100
	if m.Head.W.Val[0] == c.Head.W.Val[0] {
		t.Fatal("clone shares weights")
	}
}

func TestFineTuneImprovesOnNewKernel(t *testing.T) {
	// Train on v1; fine-tune a clone on v2 data; the fine-tuned model's
	// loss on v2 data must be no worse than the base model's.
	base := kernel.SmallConfig(17)
	k1 := kernel.Generate(base)
	k2 := kernel.Generate(kernel.Mutate(base, "v2", 18, 0.3, 2, 1))

	m := New(tinyCfg(18))
	tc1 := NewTokenCache(k1, m.Vocab)
	exs1 := collectExamples(t, k1, 19, 12, 4)
	if _, err := m.Train(exs1, tc1); err != nil {
		t.Fatal(err)
	}

	tc2 := NewTokenCache(k2, m.Vocab)
	exs2 := collectExamplesOn(t, k2, 20, 12, 4)

	ft, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ft.FineTune(exs2, tc2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatal("fine-tune epochs")
	}
	baseLoss := evalLoss(m, tc2, exs2)
	ftLoss := evalLoss(ft, tc2, exs2)
	if ftLoss > baseLoss*1.05 {
		t.Fatalf("fine-tuning hurt: %v -> %v", baseLoss, ftLoss)
	}
}

// evalLoss computes mean BCE without updating weights.
func evalLoss(m *Model, tc *TokenCache, exs []*Example) float64 {
	total := 0.0
	for _, ex := range exs {
		probs := m.Predict(ex.G, tc)
		l := 0.0
		for i, p := range probs {
			t := 0.0
			if ex.Y[i] {
				t = 1
			}
			l += bce(p, t)
		}
		if len(probs) > 0 {
			total += l / float64(len(probs))
		}
	}
	return total / float64(len(exs))
}

func collectExamplesOn(t *testing.T, k *kernel.Kernel, seed uint64, ctis, inter int) []*Example {
	return collectExamples(t, k, seed, ctis, inter)
}

func TestEvaluateScorerFilters(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(21))
	m := New(tinyCfg(20))
	tc := NewTokenCache(k, m.Vocab)
	exs := collectExamples(t, k, 22, 6, 3)
	all := EvaluateScorer(m.AsScorer(tc), exs, 0.5, AllVertices)
	urb := EvaluateScorer(m.AsScorer(tc), exs, 0.5, URBOnly)
	if all.Graphs < urb.Graphs {
		t.Fatal("URB population cannot exceed all-vertex population")
	}
	if all.Graphs == 0 {
		t.Fatal("nothing evaluated")
	}
}

func TestReportString(t *testing.T) {
	r := Report{F1: 0.5513, Precision: 0.4854, Recall: 0.6918, Graphs: 3}
	if r.String() == "" {
		t.Fatal("empty report string")
	}
}

func TestPretrainStats(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(23))
	m := New(tinyCfg(22))
	tc := NewTokenCache(k, m.Vocab)
	stats := m.Pretrain(tc, 2, 24)
	if len(stats) != 2 || stats[0].Samples == 0 {
		t.Fatalf("pretrain stats %+v", stats)
	}
}

func TestSweepOrdersByAP(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(7))
	trainExs := collectExamples(t, k, 50, 12, 4)
	validExs := collectExamples(t, k, 51, 6, 4)
	tc := NewTokenCache(k, BaseVocab())
	base := Config{Dim: 8, Layers: 1, LR: 3e-3, Epochs: 1, Seed: 9, PosWeight: 8}
	results, err := Sweep(DepthSweep(base, 1, 2), trainExs, validExs, tc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i].AP > results[i-1].AP {
			t.Fatal("results not sorted by AP")
		}
	}
	if results[0].String() == "" {
		t.Fatal("empty result string")
	}
}

func TestDepthSweep(t *testing.T) {
	base := Config{Dim: 4, Layers: 9}
	cfgs := DepthSweep(base, 1, 2, 3)
	if len(cfgs) != 3 || cfgs[0].Layers != 1 || cfgs[2].Layers != 3 {
		t.Fatalf("cfgs = %+v", cfgs)
	}
	if cfgs[0].Dim != 4 {
		t.Fatal("base fields lost")
	}
}
