package dataset

import (
	"errors"
	"testing"

	"snowcat/internal/ctgraph"
	"snowcat/internal/kernel"
	"snowcat/internal/pic"
	"snowcat/internal/ski"
)

func collectSmall(t testing.TB, seed uint64, ctis, inter int) *Dataset {
	t.Helper()
	k := kernel.Generate(kernel.SmallConfig(seed))
	col := NewCollector(k, seed+1)
	ds, err := col.Collect(Config{Seed: seed + 2, NumCTIs: ctis, InterleavingsPerCTI: inter})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestCollectShape(t *testing.T) {
	ds := collectSmall(t, 1, 10, 4)
	if len(ds.Groups) != 10 {
		t.Fatalf("groups = %d", len(ds.Groups))
	}
	for _, g := range ds.Groups {
		if len(g.Examples) == 0 || len(g.Examples) > 4 {
			t.Fatalf("group has %d examples", len(g.Examples))
		}
		if g.ProfA == nil || g.ProfB == nil {
			t.Fatal("missing profiles")
		}
		for _, ex := range g.Examples {
			if len(ex.Y) != len(ex.G.Vertices) {
				t.Fatal("label length mismatch")
			}
		}
	}
	if ds.NumExamples() != len(ds.Flatten()) {
		t.Fatal("NumExamples != len(Flatten)")
	}
}

func TestCollectDeterministic(t *testing.T) {
	a := collectSmall(t, 3, 5, 3)
	b := collectSmall(t, 3, 5, 3)
	if a.NumExamples() != b.NumExamples() {
		t.Fatalf("example counts differ: %d vs %d", a.NumExamples(), b.NumExamples())
	}
	ea, eb := a.Flatten(), b.Flatten()
	for i := range ea {
		if len(ea[i].Y) != len(eb[i].Y) {
			t.Fatal("graphs differ between identical collections")
		}
		for j := range ea[i].Y {
			if ea[i].Y[j] != eb[i].Y[j] {
				t.Fatal("labels differ between identical collections")
			}
		}
	}
}

func TestUniqueSchedulesWithinCTI(t *testing.T) {
	ds := collectSmall(t, 5, 5, 6)
	for _, g := range ds.Groups {
		seen := map[string]bool{}
		for _, ex := range g.Examples {
			k := ex.G.Sched.Key()
			if seen[k] {
				t.Fatal("duplicate schedule within a CTI group")
			}
			seen[k] = true
		}
	}
}

func TestSplitByCTIPartitions(t *testing.T) {
	ds := collectSmall(t, 7, 20, 2)
	train, valid, eval := ds.SplitByCTI(0.6, 0.2, 9)
	if len(train.Groups) != 12 || len(valid.Groups) != 4 || len(eval.Groups) != 4 {
		t.Fatalf("split sizes %d/%d/%d", len(train.Groups), len(valid.Groups), len(eval.Groups))
	}
	// No CTI appears in two splits.
	seen := map[int64]string{}
	check := func(d *Dataset, name string) {
		for _, g := range d.Groups {
			if prev, ok := seen[g.CTI.ID]; ok {
				t.Fatalf("CTI %d in both %s and %s", g.CTI.ID, prev, name)
			}
			seen[g.CTI.ID] = name
		}
	}
	check(train, "train")
	check(valid, "valid")
	check(eval, "eval")
	if len(seen) != 20 {
		t.Fatalf("split lost CTIs: %d", len(seen))
	}
}

func TestSplitDeterministic(t *testing.T) {
	ds := collectSmall(t, 9, 10, 2)
	t1, _, _ := ds.SplitByCTI(0.5, 0.2, 11)
	t2, _, _ := ds.SplitByCTI(0.5, 0.2, 11)
	for i := range t1.Groups {
		if t1.Groups[i].CTI.ID != t2.Groups[i].CTI.ID {
			t.Fatal("split not deterministic")
		}
	}
}

func TestPositiveURBRate(t *testing.T) {
	ds := collectSmall(t, 11, 30, 6)
	rate := ds.PositiveURBRate()
	if rate <= 0 || rate >= 0.5 {
		t.Fatalf("positive URB rate %v outside plausible skewed range", rate)
	}
	// The empty dataset reports zero.
	if (&Dataset{}).PositiveURBRate() != 0 {
		t.Fatal("empty dataset rate")
	}
}

func TestLabelsConsistentWithVertices(t *testing.T) {
	ds := collectSmall(t, 13, 10, 3)
	posSCB, posURB := 0, 0
	for _, ex := range ds.Flatten() {
		for i, v := range ex.G.Vertices {
			if ex.Y[i] {
				if v.Type == ctgraph.URB {
					posURB++
				} else {
					posSCB++
				}
			}
		}
	}
	if posSCB == 0 {
		t.Fatal("no covered SCBs in any concurrent execution")
	}
}

func TestLabelOneMatchesExecution(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(15))
	col := NewCollector(k, 16)
	cti, pa, pb, err := col.NewCTI(0)
	if err != nil {
		t.Fatal(err)
	}
	sched := ski.NewSampler(pa, pb, 17).Next()
	ex, res, err := col.LabelOne(cti, pa, pb, sched)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range ex.G.Vertices {
		if ex.Y[i] != res.Covered[v.Block] {
			t.Fatal("label does not match result coverage")
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ds := collectSmall(t, 17, 5, 3)
	path := t.TempDir() + "/ds.gob.gz"
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	ds2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ds2.NumExamples() != ds.NumExamples() || len(ds2.Groups) != len(ds.Groups) {
		t.Fatal("dataset shape lost in round trip")
	}
	e1, e2 := ds.Flatten(), ds2.Flatten()
	for i := range e1 {
		if len(e1[i].Y) != len(e2[i].Y) || len(e1[i].G.Edges) != len(e2[i].G.Edges) {
			t.Fatal("example shape lost")
		}
		for j := range e1[i].Y {
			if e1[i].Y[j] != e2[i].Y[j] {
				t.Fatal("labels lost")
			}
		}
		// The internal index must be rebound.
		b := e1[i].G.Vertices[0].Block
		if e2[i].G.VertexOf(b) != e1[i].G.VertexOf(b) {
			t.Fatal("vertex index not rebound after decode")
		}
	}
	if ds2.PositiveURBRate() != ds.PositiveURBRate() {
		t.Fatal("URB rate changed")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(t.TempDir() + "/nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte("junk")); err == nil {
		t.Fatal("expected error")
	}
}

// TestDecodeRejectsCorruptExamples re-encodes a collected dataset with one
// example broken at a time and requires Decode to fail with ErrCorrupt.
// Each of these used to decode cleanly and index-panic inside training.
func TestDecodeRejectsCorruptExamples(t *testing.T) {
	clean, err := collectSmall(t, 19, 2, 2).Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(ex *pic.Example)
	}{
		{"edge past the vertex count", func(ex *pic.Example) {
			n := int32(len(ex.G.Vertices))
			ex.G.Edges = append(ex.G.Edges, ctgraph.Edge{From: 0, To: n + 5, Type: ctgraph.SCBFlow})
		}},
		{"negative edge endpoint", func(ex *pic.Example) {
			ex.G.Edges = append(ex.G.Edges, ctgraph.Edge{From: -1, To: 0, Type: ctgraph.SCBFlow})
		}},
		{"short labels", func(ex *pic.Example) { ex.Y = ex.Y[:len(ex.Y)-1] }},
		{"long labels", func(ex *pic.Example) { ex.Y = append(ex.Y, true) }},
		{"edge type outside the table", func(ex *pic.Example) {
			ex.G.Edges = append(ex.G.Edges, ctgraph.Edge{From: 0, To: 0, Type: ctgraph.NumEdgeTypes})
		}},
		{"vertex type outside the table", func(ex *pic.Example) { ex.G.Vertices[0].Type = ctgraph.NumVertexTypes }},
		{"negative block", func(ex *pic.Example) { ex.G.Vertices[0].Block = -1 }},
		{"flow labels off the data-flow edges", func(ex *pic.Example) { ex.YFlow = append(ex.YFlow, false) }},
		{"missing graph", func(ex *pic.Example) { ex.G = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds, err := Decode(clean)
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(ds.Groups[1].Examples[0])
			data, err := ds.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode error %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestCollectWithIRQs(t *testing.T) {
	cfg := kernel.SmallConfig(51)
	cfg.NumIRQs = 3
	k := kernel.Generate(cfg)
	col := NewCollector(k, 52)
	ds, err := col.Collect(Config{Seed: 53, NumCTIs: 8, InterleavingsPerCTI: 4, IRQsPerSchedule: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Handler blocks must appear as graph vertices with IRQ edges.
	handlerEntry := k.Func(k.IRQs[0].Fn).Blocks[0]
	sawVertex, sawEdge := false, false
	for _, ex := range ds.Flatten() {
		if len(ex.G.Sched.IRQs) == 0 {
			t.Fatal("schedule lost its IRQ hints")
		}
		if ex.G.VertexOf(handlerEntry) >= 0 {
			sawVertex = true
		}
		if ex.G.EdgeCount(ctgraph.IRQEdge) > 0 {
			sawEdge = true
		}
	}
	if !sawVertex || !sawEdge {
		t.Fatalf("IRQ graph features missing: vertex=%v edge=%v", sawVertex, sawEdge)
	}
}
