package nn

import (
	"testing"

	"snowcat/internal/tensor"
	"snowcat/internal/xrand"
)

// randomRelGraph builds a finalized random graph: numNodes nodes, numRel
// relations, ~density edges per relation, with duplicate and self edges
// allowed (the CT graphs never produce duplicates, but the CSR must not
// care).
func randomRelGraph(rng *xrand.RNG, numNodes, numRel, edges int) *RelGraph {
	g := NewRelGraph(numNodes, numRel)
	for r := 0; r < numRel; r++ {
		for e := 0; e < edges; e++ {
			g.AddEdge(r, int32(rng.Intn(numNodes)), int32(rng.Intn(numNodes)))
		}
	}
	g.Finalize()
	return g
}

// TestCSREquivalenceProperty is the CSR-vs-edge-list property test: over
// random graphs, seeds, and shapes (including empty relations and reused
// dirty buffers), Infer's CSR gather must be bit-identical to the
// reference Forward's edge-list scatter (refGCN).
func TestCSREquivalenceProperty(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		rng := xrand.New(1000 + seed)
		numNodes := 2 + rng.Intn(20)
		numRel := 1 + rng.Intn(5)
		edges := rng.Intn(3 * numNodes) // sometimes sparse, sometimes 0
		in := 1 + rng.Intn(8)
		out := 1 + rng.Intn(8)

		g := randomRelGraph(rng, numNodes, numRel, edges)
		l := NewGCNLayer("l", in, out, numRel, rng)
		h := tensor.New(numNodes, in)
		h.Randomize(rng)

		want := (&refGCN{GCNLayer: l}).Forward(g, h)
		got := tensor.New(numNodes, out)
		agg := tensor.New(numNodes, in)
		agg.Randomize(rng) // dirty scratch must not leak into the result
		l.Infer(g, h, got, agg)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("seed %d: Infer[%d] = %v, Forward = %v (V=%d R=%d E=%d)",
					seed, i, got.Data[i], want.Data[i], numNodes, numRel, edges)
			}
		}
	}
}

// TestRelGraphCSRLayout pins the CSR invariants directly: offsets are a
// prefix sum of in-degrees and sources appear grouped by destination in
// insertion order.
func TestRelGraphCSRLayout(t *testing.T) {
	g := NewRelGraph(4, 1)
	// In-edges of node 2 added as src 3, then 1, then 3 again; node 0 gets
	// one in-edge from 2.
	g.AddEdge(0, 3, 2)
	g.AddEdge(0, 2, 0)
	g.AddEdge(0, 1, 2)
	g.AddEdge(0, 3, 2)
	g.Finalize()

	off, src := g.csrOff[0], g.csrSrc[0]
	wantOff := []int32{0, 1, 1, 4, 4}
	for i, w := range wantOff {
		if off[i] != w {
			t.Fatalf("off[%d] = %d, want %d (off=%v)", i, off[i], w, off)
		}
	}
	wantSrc := []int32{2, 3, 1, 3} // node 0's in-edge, then node 2's in order
	for i, w := range wantSrc {
		if src[i] != w {
			t.Fatalf("src[%d] = %d, want %d (src=%v)", i, src[i], w, src)
		}
	}
	if g.Norm[0][2] != 1.0/3 || g.Norm[0][0] != 1 || g.Norm[0][1] != 0 {
		t.Fatalf("norm = %v", g.Norm[0])
	}
}

// TestFinalizeTwicePanics pins the double-finalize guard.
func TestFinalizeTwicePanics(t *testing.T) {
	g := NewRelGraph(2, 1)
	g.AddEdge(0, 0, 1)
	g.Finalize()
	defer func() {
		if recover() == nil {
			t.Fatal("second Finalize did not panic")
		}
	}()
	g.Finalize()
}

// TestAddEdgeAfterFinalizePanics pins the companion guard on AddEdge.
func TestAddEdgeAfterFinalizePanics(t *testing.T) {
	g := NewRelGraph(2, 1)
	g.Finalize()
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge after Finalize did not panic")
		}
	}()
	g.AddEdge(0, 0, 1)
}

// TestRelGraphResetReusesBuffers verifies the arena contract: after a
// warm-up build, Reset+AddEdge+Finalize at the same shape performs no
// allocations, and the rebuilt graph matches a freshly built one.
func TestRelGraphResetReusesBuffers(t *testing.T) {
	rng := xrand.New(7)
	var stream []EdgePair
	for i := 0; i < 30; i++ {
		stream = append(stream, EdgePair{Src: int32(rng.Intn(6)), Dst: int32(rng.Intn(6))})
	}
	build := func(g *RelGraph) {
		for r := 0; r < 3; r++ {
			for e := 0; e < 10; e++ {
				p := stream[r*10+e]
				g.AddEdge(r, p.Src, p.Dst)
			}
		}
		g.Finalize()
	}

	g := NewRelGraph(6, 3)
	build(g)
	allocs := testing.AllocsPerRun(20, func() {
		g.Reset(6, 3)
		build(g)
	})
	if allocs != 0 {
		t.Fatalf("Reset+rebuild allocated %v times per run, want 0", allocs)
	}

	fresh := NewRelGraph(6, 3)
	build(fresh)
	for r := range fresh.Rel {
		if len(fresh.Rel[r]) != len(g.Rel[r]) {
			t.Fatalf("relation %d: %d edges after reuse, want %d", r, len(g.Rel[r]), len(fresh.Rel[r]))
		}
		for i := range fresh.Rel[r] {
			if fresh.Rel[r][i] != g.Rel[r][i] {
				t.Fatalf("relation %d edge %d differs after reuse", r, i)
			}
		}
		for i := range fresh.Norm[r] {
			if fresh.Norm[r][i] != g.Norm[r][i] {
				t.Fatalf("relation %d norm %d differs after reuse", r, i)
			}
		}
		for i := range fresh.csrSrc[r] {
			if fresh.csrSrc[r][i] != g.csrSrc[r][i] {
				t.Fatalf("relation %d csr src %d differs after reuse", r, i)
			}
		}
	}
}
