package dataset

import (
	"strconv"

	"snowcat/internal/pic"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
)

// Accumulator is the dataset's ingest front door for streamed examples.
// It deduplicates by (CTI ID, schedule key) — the identity of one dynamic
// execution — so replayed or retried executions from the fault layer fold
// into the dataset exactly once instead of double-counting their labels.
// Groups keep first-ingest CTI order and examples keep ingest order, so
// the accumulated dataset is a pure function of the ingest sequence.
//
// Batch collection (Collector.Collect) samples unique schedules per CTI
// and never replays, so it needs no Accumulator; the streaming loop —
// where the fault layer retries executions and a caller may replay a
// round — does.
type Accumulator struct {
	ds   *Dataset
	idx  map[int64]*CTIGroup
	seen map[string]bool
	flat []*pic.Example
	dups int
}

// NewAccumulator opens an empty accumulator.
func NewAccumulator() *Accumulator {
	return &Accumulator{
		ds:   &Dataset{},
		idx:  make(map[int64]*CTIGroup),
		seen: make(map[string]bool),
	}
}

// ingestKey is the dedup identity of one execution. Schedule keys never
// contain '|' (they are digit/punctuation renderings), so the composite
// cannot collide across CTIs.
func ingestKey(ctiID int64, schedKey string) string {
	return strconv.FormatInt(ctiID, 10) + "|" + schedKey
}

// Add ingests one labelled example for (cti, schedKey). The profiles
// attach to the CTI's group on first sight (later calls may pass nil).
// Returns false — and ingests nothing — when the execution was already
// ingested.
func (a *Accumulator) Add(cti ski.CTI, pa, pb *syz.Profile, schedKey string, ex *pic.Example) bool {
	key := ingestKey(cti.ID, schedKey)
	if a.seen[key] {
		a.dups++
		return false
	}
	a.seen[key] = true
	g := a.idx[cti.ID]
	if g == nil {
		g = &CTIGroup{CTI: cti, ProfA: pa, ProfB: pb}
		a.idx[cti.ID] = g
		a.ds.Groups = append(a.ds.Groups, g)
	}
	g.Examples = append(g.Examples, ex)
	a.flat = append(a.flat, ex)
	return true
}

// Seen reports whether (cti, schedKey) was already ingested.
func (a *Accumulator) Seen(ctiID int64, schedKey string) bool {
	return a.seen[ingestKey(ctiID, schedKey)]
}

// Len returns the ingested (deduplicated) example count.
func (a *Accumulator) Len() int { return len(a.flat) }

// Dups returns how many ingests were rejected as replays.
func (a *Accumulator) Dups() int { return a.dups }

// Flat returns the ingested examples in ingest order. Unlike
// Dataset.Flatten — whose group-major order shifts as earlier groups grow
// — this order is append-only, so a trainer can consume Flat()[n:] as
// "everything since my last round". The slice is shared; do not mutate.
func (a *Accumulator) Flat() []*pic.Example { return a.flat }

// Snapshot copies the accumulated dataset: fresh group headers and
// example slices over the shared (immutable) examples, safe to hold while
// the accumulator keeps ingesting.
func (a *Accumulator) Snapshot() *Dataset {
	out := &Dataset{Groups: make([]*CTIGroup, len(a.ds.Groups))}
	for i, g := range a.ds.Groups {
		out.Groups[i] = &CTIGroup{
			CTI: g.CTI, ProfA: g.ProfA, ProfB: g.ProfB,
			Examples: append([]*pic.Example(nil), g.Examples...),
		}
	}
	return out
}
