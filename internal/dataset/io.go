package dataset

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"errors"
	"fmt"
	"os"

	"snowcat/internal/atomicfile"
	"snowcat/internal/ctgraph"
)

// ErrCorrupt reports a decoded dataset whose examples do not fit together:
// a missing group, example or graph, an edge endpoint outside its graph's
// vertex list, a vertex or edge type outside its table, a negative block
// ID, or a label slice whose length differs from the population it
// labels. Such a dataset would otherwise decode cleanly and index-panic
// inside training.
var ErrCorrupt = errors.New("dataset: corrupt")

// ErrKernelMismatch reports a dataset whose graphs name blocks the kernel
// it is used with does not have: it was collected on another kernel.
var ErrKernelMismatch = errors.New("dataset: kernel mismatch")

// Encode serialises the dataset with gob+gzip. Datasets are the expensive
// artifact of the pipeline — the paper spends hundreds of hours collecting
// them — so campaigns cache them on disk and reload instead of re-running
// dynamic executions.
func (d *Dataset) Encode() ([]byte, error) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := gob.NewEncoder(zw).Encode(d); err != nil {
		return nil, fmt.Errorf("dataset: encode: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("dataset: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode reconstructs a dataset serialised by Encode, restoring the
// graphs' internal indices. A dataset whose examples do not fit together
// fails with an error matching ErrCorrupt.
func Decode(data []byte) (*Dataset, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("dataset: decode: %w", err)
	}
	var d Dataset
	if err := gob.NewDecoder(zr).Decode(&d); err != nil {
		return nil, fmt.Errorf("dataset: decode: %w", err)
	}
	if err := d.check(); err != nil {
		return nil, err
	}
	for _, g := range d.Groups {
		for _, ex := range g.Examples {
			ex.G.Rebind()
		}
	}
	return &d, nil
}

// check verifies that every index the training and evaluation paths take
// from an example stays inside the slice it indexes.
func (d *Dataset) check() error {
	for gi, g := range d.Groups {
		if g == nil {
			return fmt.Errorf("%w: group %d is missing", ErrCorrupt, gi)
		}
		for ei, ex := range g.Examples {
			if ex == nil || ex.G == nil {
				return fmt.Errorf("%w: group %d example %d has no graph", ErrCorrupt, gi, ei)
			}
			n := len(ex.G.Vertices)
			if len(ex.Y) != n {
				return fmt.Errorf("%w: group %d example %d has %d labels for %d vertices", ErrCorrupt, gi, ei, len(ex.Y), n)
			}
			for _, v := range ex.G.Vertices {
				if v.Type >= ctgraph.NumVertexTypes {
					return fmt.Errorf("%w: group %d example %d has vertex type %d", ErrCorrupt, gi, ei, v.Type)
				}
				if v.Block < 0 {
					return fmt.Errorf("%w: group %d example %d has block %d", ErrCorrupt, gi, ei, v.Block)
				}
			}
			interDF := 0
			for _, e := range ex.G.Edges {
				if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
					return fmt.Errorf("%w: group %d example %d has edge %d->%d outside %d vertices", ErrCorrupt, gi, ei, e.From, e.To, n)
				}
				if e.Type >= ctgraph.NumEdgeTypes {
					return fmt.Errorf("%w: group %d example %d has edge type %d", ErrCorrupt, gi, ei, e.Type)
				}
				if e.Type == ctgraph.InterDF {
					interDF++
				}
			}
			if ex.YFlow != nil && len(ex.YFlow) != interDF {
				return fmt.Errorf("%w: group %d example %d has %d flow labels for %d inter-thread data-flow edges", ErrCorrupt, gi, ei, len(ex.YFlow), interDF)
			}
		}
	}
	return nil
}

// SaveFile writes the dataset to path, atomically: a failed save leaves
// the previous file intact.
func (d *Dataset) SaveFile(path string) error {
	data, err := d.Encode()
	if err != nil {
		return err
	}
	if err := atomicfile.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("dataset: save: %w", err)
	}
	return nil
}

// LoadFile reads a dataset written by SaveFile.
func LoadFile(path string) (*Dataset, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: load: %w", err)
	}
	return Decode(data)
}

// CheckBlocks verifies that every vertex names a block below numBlocks,
// the block count of the kernel the dataset is about to be used with. A
// dataset collected on a bigger kernel fails with ErrKernelMismatch; one
// from a smaller kernel passes, since block IDs alone cannot tell.
func (d *Dataset) CheckBlocks(numBlocks int) error {
	for gi, g := range d.Groups {
		for ei, ex := range g.Examples {
			for _, v := range ex.G.Vertices {
				if int(v.Block) >= numBlocks {
					return fmt.Errorf("%w: group %d example %d names block %d of a kernel with %d blocks",
						ErrKernelMismatch, gi, ei, v.Block, numBlocks)
				}
			}
		}
	}
	return nil
}
