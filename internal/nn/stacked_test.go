package nn

import (
	"testing"

	"snowcat/internal/tensor"
	"snowcat/internal/xrand"
)

// TestInferStackedBitEqual is the fusion contract: over random splits of an
// adjacency into a shared skeleton plus per-graph private relations,
// InferStacked over K stacked graphs must be bit-identical to K separate
// Infer calls over the monolithically built graphs.
func TestInferStackedBitEqual(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		rng := xrand.New(4000 + seed)
		n := 2 + rng.Intn(12)
		in := 1 + rng.Intn(8)
		out := 1 + rng.Intn(8)
		k := 1 + rng.Intn(4)
		const numRel = 4 // relations 0,2 shared; 1,3 private per graph

		type edge struct {
			r        int
			src, dst int32
		}
		sharedEdges := make([]edge, 0, 2*n)
		for e := 0; e < rng.Intn(3*n); e++ {
			r := []int{0, 2}[rng.Intn(2)]
			sharedEdges = append(sharedEdges, edge{r, int32(rng.Intn(n)), int32(rng.Intn(n))})
		}
		shared := NewRelGraph(n, numRel)
		for _, e := range sharedEdges {
			shared.AddEdge(e.r, e.src, e.dst)
		}
		shared.Finalize()

		l := NewGCNLayer("l", in, out, numRel, rng)
		h := tensor.New(k*n, in)
		h.Randomize(rng)

		deltas := make([]*RelGraph, k)
		want := tensor.New(k*n, out)
		agg := tensor.New(n, in)
		for j := 0; j < k; j++ {
			privEdges := make([]edge, 0, 4)
			for e := 0; e < rng.Intn(5); e++ {
				r := []int{1, 3}[rng.Intn(2)]
				privEdges = append(privEdges, edge{r, int32(rng.Intn(n)), int32(rng.Intn(n))})
			}
			if len(privEdges) > 0 || rng.Intn(2) == 0 {
				dg := NewRelGraph(n, numRel)
				for _, e := range privEdges {
					dg.AddEdge(e.r, e.src, e.dst)
				}
				dg.Finalize()
				deltas[j] = dg
			} // else nil delta: graph j has no private edges

			// Monolithic reference graph: shared edges in their insertion
			// order, then the private ones (disjoint relations, so relative
			// order across the two groups is irrelevant).
			full := NewRelGraph(n, numRel)
			for _, e := range sharedEdges {
				full.AddEdge(e.r, e.src, e.dst)
			}
			for _, e := range privEdges {
				full.AddEdge(e.r, e.src, e.dst)
			}
			full.Finalize()

			hj := &tensor.Matrix{Rows: n, Cols: in, Data: h.Data[j*n*in : (j+1)*n*in]}
			wj := &tensor.Matrix{Rows: n, Cols: out, Data: want.Data[j*n*out : (j+1)*n*out]}
			agg.Randomize(rng) // dirty scratch must not leak
			l.Infer(full, hj, wj, agg)
		}

		got := tensor.New(k*n, out)
		agg.Randomize(rng)
		l.InferStacked(shared, deltas, h, got, agg)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("seed %d: InferStacked[%d] = %v, Infer = %v (n=%d k=%d)",
					seed, i, got.Data[i], want.Data[i], n, k)
			}
		}
	}
}

// TestInferStackedOverlapPanics pins the disjointness guard: a relation with
// edges on both the shared and a delta side must panic rather than produce
// a silently mis-normalised row.
func TestInferStackedOverlapPanics(t *testing.T) {
	rng := xrand.New(99)
	shared := NewRelGraph(3, 2)
	shared.AddEdge(0, 0, 1)
	shared.Finalize()
	delta := NewRelGraph(3, 2)
	delta.AddEdge(0, 2, 1) // same relation as shared: contract violation
	delta.Finalize()
	l := NewGCNLayer("l", 2, 2, 2, rng)
	h := tensor.New(3, 2)
	out := tensor.New(3, 2)
	agg := tensor.New(3, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping shared/delta relation did not panic")
		}
	}()
	l.InferStacked(shared, []*RelGraph{delta}, h, out, agg)
}
