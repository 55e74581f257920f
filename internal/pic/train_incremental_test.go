package pic

import (
	"bytes"
	"testing"

	"snowcat/internal/kernel"
)

// encodeOrFatal pins a model's full state (weights, Adam moments,
// threshold) as bytes — the strongest equality there is here.
func encodeOrFatal(t *testing.T, m *Model) []byte {
	t.Helper()
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func incrementalFixture(t *testing.T) (*Model, *TokenCache, []*Example) {
	t.Helper()
	k := kernel.Generate(kernel.SmallConfig(11))
	m := New(tinyCfg(7))
	tc := NewTokenCache(k, m.Vocab)
	exs := collectExamples(t, k, 13, 4, 3)
	if len(exs) < 6 {
		t.Fatalf("fixture too small: %d examples", len(exs))
	}
	return m, tc, exs
}

// A warm-start round with zero new examples must be a no-op: the model
// that comes out is bit-identical to the one that went in.
func TestTrainIncrementalZeroNewIsIdentity(t *testing.T) {
	m, tc, exs := incrementalFixture(t)
	st := m.NewTrainState()
	if _, err := m.TrainIncremental(st, exs[:4], tc); err != nil {
		t.Fatal(err)
	}
	before := encodeOrFatal(t, m)
	steps := st.Steps()
	stats, err := m.TrainIncremental(st, nil, tc)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Examples != 0 {
		t.Fatalf("zero-new round reported %d examples", stats.Examples)
	}
	if st.Steps() != steps {
		t.Fatalf("zero-new round advanced the step counter: %d -> %d", steps, st.Steps())
	}
	if !bytes.Equal(before, encodeOrFatal(t, m)) {
		t.Fatal("zero-new retrain changed the model")
	}
}

// Chunked warm-start rounds must land on exactly the weights one
// continuous incremental pass over the concatenated stream produces: the
// Adam step counter and moments persist across rounds, so chunk
// boundaries are invisible.
func TestTrainIncrementalChunkingInvisible(t *testing.T) {
	m, tc, exs := incrementalFixture(t)
	whole, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := whole.TrainIncremental(whole.NewTrainState(), exs, tc); err != nil {
		t.Fatal(err)
	}

	st := chunked.NewTrainState()
	for _, chunk := range [][]*Example{exs[:2], exs[2:5], exs[5:]} {
		if _, err := chunked.TrainIncremental(st, chunk, tc); err != nil {
			t.Fatal(err)
		}
	}
	if st.Steps() != len(exs) {
		t.Fatalf("steps = %d, want %d", st.Steps(), len(exs))
	}
	if !bytes.Equal(encodeOrFatal(t, whole), encodeOrFatal(t, chunked)) {
		t.Fatal("chunked warm-start diverged from the continuous pass")
	}
}
