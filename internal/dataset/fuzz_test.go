package dataset

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"testing"

	"snowcat/internal/ctgraph"
	"snowcat/internal/pic"
)

// FuzzDatasetDecode pins the dataset file boundary: Decode never panics on
// any input, and every dataset it accepts can be indexed the way training
// indexes it — every edge endpoint inside its graph, one label per vertex,
// one flow label per inter-thread data-flow edge.
func FuzzDatasetDecode(f *testing.F) {
	// The seed is a hand-built two-vertex dataset: the engine minimises
	// every new input it finds, and a collected example (kilobytes of gob)
	// would spend the whole smoke run there.
	tiny := &Dataset{Groups: []*CTIGroup{{Examples: []*pic.Example{{
		G: &ctgraph.Graph{
			Vertices: []ctgraph.Vertex{{Block: 3, Type: ctgraph.SCB}, {Block: 5, Type: ctgraph.URB}},
			Edges:    []ctgraph.Edge{{From: 0, To: 1, Type: ctgraph.InterDF}, {From: 1, To: 0, Type: ctgraph.Hint}},
		},
		Y:     []bool{true, false},
		YFlow: []bool{true},
	}}}}}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(tiny); err != nil {
		f.Fatal(err)
	}
	f.Add(payload.Bytes())
	f.Add([]byte{})
	f.Add([]byte("junk"))
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	f.Fuzz(func(t *testing.T, raw []byte) {
		Decode(raw)
		// Wrap raw the way Encode does, so mutations reach the gob decoder
		// and the shape checks instead of failing the gzip checksum. The
		// writer is reset per input: a fresh compressor costs more than the
		// decode under test.
		buf.Reset()
		zw.Reset(&buf)
		zw.Write(raw)
		zw.Close()
		got, err := Decode(buf.Bytes())
		if err != nil {
			return
		}
		for _, g := range got.Groups {
			for _, ex := range g.Examples {
				n := len(ex.G.Vertices)
				if len(ex.Y) != n {
					t.Fatalf("accepted %d labels for %d vertices", len(ex.Y), n)
				}
				flow := 0
				for _, e := range ex.G.Edges {
					if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
						t.Fatalf("accepted edge %d->%d over %d vertices", e.From, e.To, n)
					}
					if e.Type == ctgraph.InterDF {
						flow++
					}
				}
				if ex.YFlow != nil && len(ex.YFlow) != flow {
					t.Fatalf("accepted %d flow labels for %d data-flow edges", len(ex.YFlow), flow)
				}
			}
		}
		got.PositiveURBRate()
	})
}
