package pic

import (
	"math"
	"testing"

	"snowcat/internal/nn"
)

// FuzzModelDecode pins the model file boundary: Decode never panics, and
// every model it accepts scores a fixture graph with finite probabilities
// in [0,1], one per vertex. A model file that decodes cleanly must not
// panic or answer NaN on its first request.
func FuzzModelDecode(f *testing.F) {
	k, _, graphs := baseFixture(f, 51, 1)
	g := graphs[0]
	// The seed is a Dim-2 model over the reserved vocabulary only: a
	// small input keeps the engine's minimisation of new inputs short.
	m := New(Config{Dim: 2, Layers: 1, Seed: 52})
	m.Vocab = nn.BuildVocab(nil)
	m.Enc = nn.NewAsmEncoder(m.Vocab, 2, nil)
	data, err := m.Encode()
	if err != nil {
		f.Fatal(err)
	}
	if _, err := Decode(data); err != nil {
		f.Fatalf("seed model rejected: %v", err)
	}
	f.Add(data)
	f.Add([]byte{})
	f.Add([]byte("junk"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := Decode(raw)
		if err != nil {
			return
		}
		probs := m.Predict(g, NewTokenCache(k, m.Vocab))
		if len(probs) != len(g.Vertices) {
			t.Fatalf("%d scores for %d vertices", len(probs), len(g.Vertices))
		}
		for i, p := range probs {
			if math.IsNaN(p) || p < 0 || p > 1 {
				t.Fatalf("vertex %d scored %v", i, p)
			}
		}
	})
}
