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
		agg := tensor.New(1, tensor.GCNAggLen(numRel, in))
		agg.Randomize(rng) // dirty scratch must not leak into the result
		l.Infer(g, h, got, agg.Data)
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

// sameGraph fails unless a and b hold the same nodes, the same edges and
// norms in every relation, and the same index with the same relation
// bits. Slices compare by their elements, so a graph built in reused
// buffers equals a fresh one.
func sameGraph(t *testing.T, what string, a, b *RelGraph) {
	t.Helper()
	if a.NumNodes != b.NumNodes || len(a.Rel) != len(b.Rel) || len(a.Norm) != len(b.Norm) {
		t.Fatalf("%s: %d nodes, %d relations, %d norms; want %d, %d, %d",
			what, a.NumNodes, len(a.Rel), len(a.Norm), b.NumNodes, len(b.Rel), len(b.Norm))
	}
	for r := range a.Rel {
		if !slices.Equal(a.Rel[r], b.Rel[r]) || !slices.Equal(a.Norm[r], b.Norm[r]) {
			t.Fatalf("%s: relation %d has edges %v and norms %v, want %v and %v", what, r, a.Rel[r], a.Norm[r], b.Rel[r], b.Norm[r])
		}
	}
	if !slices.Equal(a.off, b.off) || !slices.Equal(a.src, b.src) || !slices.Equal(a.rels, b.rels) {
		t.Fatalf("%s: index off %v src %v rels %v, want %v, %v, %v", what, a.off, a.src, a.rels, b.off, b.src, b.rels)
	}
}

// TestRelGraphRelationBits pins the relation bits against the index they
// summarise: bit r of rels[d] is set exactly when (d, r) has sources, over
// random graphs of up to 64 relations, so the highest relations are
// covered too.
func TestRelGraphRelationBits(t *testing.T) {
	rng := xrand.New(11)
	g := &RelGraph{}
	for trial := 0; trial < 60; trial++ {
		n, nr := 1+rng.Intn(12), []int{1, 14, 64}[trial%3]
		g.Reset(n, nr)
		for r := 0; r < nr; r++ {
			if rng.Intn(3) == 0 {
				continue
			}
			for e := rng.Intn(n + 1); e >= 0; e-- {
				g.AddEdge(r, int32(rng.Intn(n)), int32(rng.Intn(n)))
			}
		}
		g.Finalize()
		for d := 0; d < n; d++ {
			for r := 0; r < nr; r++ {
				k := d*nr + r
				if has := g.rels[d]>>r&1 != 0; has != (g.off[k] < g.off[k+1]) {
					t.Fatalf("trial %d: destination %d relation %d: bit %v, sources %d", trial, d, r, has, g.off[k+1]-g.off[k])
				}
			}
		}
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "65 relations") {
			t.Fatalf("Finalize of 65 relations recovered %q, want a panic naming the count", msg)
		}
	}()
	NewRelGraph(2, 65).Finalize()
}

// TestRelGraphSpliceMatchesFinalize pins Splice to the graph it stands
// for: over random bases, a graph that adds edges to relations the base
// leaves empty, spliced onto the base, equals Reset, AddEdge of every base
// edge and then every added one, and Finalize, field for field. One
// spliced graph is reused throughout, alternating with plain rebuilds, and
// none of it may write to a base: each base is compared with its snapshot
// after every step. A warm splice followed by a rebuild in the same
// buffers allocates nothing.
func TestRelGraphSpliceMatchesFinalize(t *testing.T) {
	rng := xrand.New(12)
	spliced := &RelGraph{}
	for trial := 0; trial < 80; trial++ {
		n, nr := 1+rng.Intn(14), 1+rng.Intn(16)
		var added []int // the relations left empty in the base, edges added
		for r := 0; r < nr; r++ {
			if rng.Intn(4) == 0 {
				added = append(added, r)
			}
		}
		base := NewRelGraph(n, nr)
		for r := 0; r < nr; r++ {
			if slices.Contains(added, r) || rng.Intn(5) == 0 {
				continue
			}
			for e := rng.Intn(2*n + 1); e >= 0; e-- {
				base.AddEdge(r, int32(rng.Intn(n)), int32(rng.Intn(n)))
			}
		}
		var extra []EdgePair // (src, dst) per added relation in turn, with duplicates and self edges
		addEdges := func(g *RelGraph) {
			for i, r := range added {
				for _, e := range extra[i*4 : i*4+4] {
					if e.Src >= 0 {
						g.AddEdge(r, e.Src, e.Dst)
					}
				}
			}
		}
		for range added {
			v := int32(rng.Intn(n))
			for _, e := range []EdgePair{{v, v}, {int32(rng.Intn(n)), v}, {v, v}, {int32(rng.Intn(n)), int32(rng.Intn(n))}} {
				if rng.Intn(4) == 0 {
					e.Src = -1 // dropped: some added relations stay empty
				}
				extra = append(extra, e)
			}
		}
		want := NewRelGraph(n, nr)
		for r, edges := range base.Rel {
			for _, e := range edges {
				want.AddEdge(r, e.Src, e.Dst)
			}
		}
		addEdges(want)
		want.Finalize()
		base.Finalize()
		snap := &RelGraph{NumNodes: n, off: slices.Clone(base.off), src: slices.Clone(base.src), rels: slices.Clone(base.rels)}
		for r := range base.Rel {
			snap.Rel = append(snap.Rel, slices.Clone(base.Rel[r]))
			snap.Norm = append(snap.Norm, slices.Clone(base.Norm[r]))
		}

		spliced.Reset(n, nr)
		addEdges(spliced)
		spliced.Splice(base)
		sameGraph(t, fmt.Sprintf("trial %d splice", trial), spliced, want)
		// A plain rebuild in the same buffers must not write to the base.
		spliced.Reset(n, nr)
		for r := 0; r < nr; r++ {
			for e := rng.Intn(2 * n); e >= 0; e-- {
				spliced.AddEdge(r, int32(rng.Intn(n)), int32(rng.Intn(n)))
			}
		}
		spliced.Finalize()
		sameGraph(t, fmt.Sprintf("trial %d base after a rebuild over its splice", trial), base, snap)
		spliced.Reset(n, nr)
		addEdges(spliced)
		spliced.Splice(base)
		sameGraph(t, fmt.Sprintf("trial %d splice after a rebuild", trial), spliced, want)
		if trial%10 == 0 {
			allocs := testing.AllocsPerRun(10, func() {
				spliced.Reset(n, nr)
				addEdges(spliced)
				spliced.Splice(base)
				spliced.Reset(n, nr)
				for r, edges := range want.Rel {
					for _, e := range edges {
						spliced.AddEdge(r, e.Src, e.Dst)
					}
				}
				spliced.Finalize()
			})
			if allocs != 0 {
				t.Fatalf("trial %d: a warm splice and rebuild allocated %v times per run, want 0", trial, allocs)
			}
		}
	}
}

// TestRelGraphSplicePanics pins Splice's guards: a base of another shape,
// an unfinalized base, an added edge in a relation the base already has,
// an added edge outside the graph, and a second finalize.
func TestRelGraphSplicePanics(t *testing.T) {
	base := NewRelGraph(3, 2)
	base.AddEdge(0, 0, 1)
	base.Finalize()
	cases := []struct {
		name, want string
		f          func()
	}{
		{"nodes", "another shape", func() { NewRelGraph(4, 2).Splice(base) }},
		{"relations", "another shape", func() { NewRelGraph(3, 3).Splice(base) }},
		{"unfinalized", "not finalized", func() { NewRelGraph(3, 2).Splice(NewRelGraph(3, 2)) }},
		{"taken relation", "relation 0", func() {
			g := NewRelGraph(3, 2)
			g.AddEdge(0, 2, 2)
			g.Splice(base)
		}},
		{"endpoint", "relation 1 edge 0 (3 -> 0)", func() {
			g := NewRelGraph(3, 2)
			g.AddEdge(1, 3, 0)
			g.Splice(base)
		}},
		{"twice", "finalized twice", func() {
			g := NewRelGraph(3, 2)
			g.Splice(base)
			g.Splice(base)
		}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, c.want) {
					t.Errorf("%s: recovered %q, want a panic containing %q", c.name, msg, c.want)
				}
			}()
			c.f()
		}()
	}
}
