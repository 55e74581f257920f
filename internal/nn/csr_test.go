package nn

import (
	"fmt"
	"slices"
	"strings"
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
		agg := tensor.New(numRel, in)
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

// TestRelGraphCSRLayout pins the index directly: one offset per
// (destination, relation) pair in destination-major order plus the total,
// sources grouped by pair in insertion order, and the norms.
func TestRelGraphCSRLayout(t *testing.T) {
	g := NewRelGraph(4, 2)
	// Relation 0: in-edges of node 2 added as src 3, then 1, then 3 again;
	// node 0 gets one in-edge from 2. Relation 1: node 2 gets one from 0,
	// node 3 one from 1.
	g.AddEdge(0, 3, 2)
	g.AddEdge(1, 1, 3)
	g.AddEdge(0, 2, 0)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 0, 2)
	g.AddEdge(0, 3, 2)
	g.Finalize()

	// Pairs (0,0) (0,1) (1,0) (1,1) (2,0) (2,1) (3,0) (3,1), then the end.
	wantOff := []int32{0, 1, 1, 1, 1, 4, 5, 5, 6}
	wantSrc := []int32{2, 3, 1, 3, 0, 1}
	if !slices.Equal(g.off, wantOff) {
		t.Fatalf("off = %v, want %v", g.off, wantOff)
	}
	if !slices.Equal(g.src, wantSrc) {
		t.Fatalf("src = %v, want %v", g.src, wantSrc)
	}
	if g.Norm[0][2] != 1.0/3 || g.Norm[0][0] != 1 || g.Norm[0][1] != 0 || g.Norm[1][2] != 1 || g.Norm[1][0] != 0 {
		t.Fatalf("norm = %v", g.Norm)
	}
}

// TestFinalizePanicsOnOutOfRangeEndpoint pins the endpoint check the
// layer kernels rely on: a source or destination outside [0, NumNodes)
// fails Finalize with a message naming the relation and the edge.
func TestFinalizePanicsOnOutOfRangeEndpoint(t *testing.T) {
	for _, e := range []EdgePair{{Src: -1, Dst: 0}, {Src: 3, Dst: 0}, {Src: 0, Dst: 3}} {
		g := NewRelGraph(3, 2)
		g.AddEdge(0, 0, 1)
		g.AddEdge(1, 2, 2)
		g.AddEdge(1, e.Src, e.Dst)
		func() {
			defer func() {
				msg, _ := recover().(string)
				want := fmt.Sprintf("relation 1 edge 1 (%d -> %d)", e.Src, e.Dst)
				if !strings.Contains(msg, want) {
					t.Errorf("edge %d -> %d: recovered %q, want a panic naming %q", e.Src, e.Dst, msg, want)
				}
			}()
			g.Finalize()
		}()
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
	}
	if !slices.Equal(fresh.off, g.off) || !slices.Equal(fresh.src, g.src) {
		t.Fatalf("index differs after reuse: off %v src %v, fresh off %v src %v", g.off, g.src, fresh.off, fresh.src)
	}
}
