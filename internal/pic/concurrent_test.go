package pic

import (
	"reflect"
	"sync"
	"testing"

	"snowcat/internal/cfg"
	"snowcat/internal/ctgraph"
	"snowcat/internal/kernel"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
)

// baseFixture builds one CTI's base skeleton and n schedule-completed
// graphs from it.
func baseFixture(t testing.TB, seed uint64, n int) (*kernel.Kernel, *ctgraph.Base, []*ctgraph.Graph) {
	t.Helper()
	k := kernel.Generate(kernel.SmallConfig(seed))
	gen := syz.NewGenerator(k, seed+1)
	a, b := gen.Generate(), gen.Generate()
	cti := ski.CTI{ID: 1, A: a, B: b}
	pa, err := syz.Run(k, a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := syz.Run(k, b)
	if err != nil {
		t.Fatal(err)
	}
	base := ctgraph.NewBuilder(k, cfg.Build(k)).BuildBase(cti, pa, pb)
	sampler := ski.NewSampler(pa, pb, seed+2)
	graphs := make([]*ctgraph.Graph, n)
	for i := range graphs {
		graphs[i] = base.WithSchedule(sampler.Next())
	}
	return k, base, graphs
}

// TestTokenCacheConcurrentReaders enforces the TokenCache contract: it is
// read-only after NewTokenCache, so concurrent Predict calls sharing one
// cache are race-free (run under -race by `make test`).
func TestTokenCacheConcurrentReaders(t *testing.T) {
	k, _, graphs := baseFixture(t, 31, 4)
	m := New(tinyCfg(32))
	tc := NewTokenCache(k, m.Vocab)
	want := make([][]float64, len(graphs))
	for i, g := range graphs {
		want[i] = m.Predict(g, tc)
	}

	const readers = 8
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, g := range graphs {
				if got := m.Predict(g, tc); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("graph %d: concurrent reader diverged", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestBaseContextConcurrentPredict pins the serving-side sharing contract:
// one BaseContext may back any number of concurrent PredictInto calls (each
// goroutine with its own Scratch), and every result is bit-identical to the
// sequential single-scratch run.
func TestBaseContextConcurrentPredict(t *testing.T) {
	k, base, graphs := baseFixture(t, 41, 6)
	m := New(tinyCfg(42))
	tc := NewTokenCache(k, m.Vocab)
	bc := m.NewBaseContext(base, tc)

	seq := make([][]float64, len(graphs))
	scratch := NewScratch()
	for i, g := range graphs {
		seq[i] = m.PredictInto(nil, g, tc, scratch, bc)
	}

	const goroutines = 8
	results := make([][][]float64, goroutines)
	var wg sync.WaitGroup
	for r := 0; r < goroutines; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := NewScratch()
			results[r] = make([][]float64, len(graphs))
			for i, g := range graphs {
				results[r][i] = m.PredictInto(nil, g, tc, s, bc)
			}
		}(r)
	}
	wg.Wait()
	for r := range results {
		if !reflect.DeepEqual(results[r], seq) {
			t.Fatalf("goroutine %d: shared-BaseContext predictions diverged from sequential", r)
		}
	}
}
