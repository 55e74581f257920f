package pic

import (
	"testing"

	"snowcat/internal/kernel"
)

// BenchmarkTrainEpoch times one Train epoch — 72 examples, one optimiser
// step each — on the learn-retrain workload's kernel (SmallConfig(301)
// with 12 planted bugs) at its launch model's shape (Dim 16, 3 layers).
// Every iteration trains a fresh copy of the same initial model, built
// with the timer stopped, so each iteration does identical work.
func BenchmarkTrainEpoch(b *testing.B) {
	kc := kernel.SmallConfig(301)
	kc.NumBugs = 12
	k := kernel.Generate(kc)
	exs := collectExamples(b, k, 303, 12, 6)
	if len(exs) < 72 {
		b.Fatalf("fixture collected %d examples, want 72", len(exs))
	}
	exs = exs[:72]
	cfg := Config{Dim: 16, Layers: 3, LR: 3e-3, Epochs: 1, Seed: 302, PosWeight: 8}
	tc := NewTokenCache(k, New(cfg).Vocab)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := New(cfg)
		b.StartTimer()
		if _, err := m.Train(exs, tc); err != nil {
			b.Fatal(err)
		}
	}
}
