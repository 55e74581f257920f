package dataset

import (
	"reflect"
	"testing"

	"snowcat/internal/kernel"
	"snowcat/internal/ski"
)

// The regression this pins: a fault-layer replay (or a round rerun after
// a failed scoring call) presents the same (CTI, schedule) twice, and the
// streamed dataset must count it once.
func TestAccumulatorDedupesReplays(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(21))
	col := NewCollector(k, 22)
	cti, pa, pb, err := col.NewCTI(0)
	if err != nil {
		t.Fatal(err)
	}
	sampler := ski.NewSampler(pa, pb, 23)
	acc := NewAccumulator()
	seen := map[string]bool{}
	var keys []string
	for i := 0; i < 3; i++ {
		sched, ok := sampler.NextUnique(seen, 50)
		if !ok {
			t.Fatal("sampler dried up")
		}
		ex, _, err := col.LabelOne(cti, pa, pb, sched)
		if err != nil {
			t.Fatal(err)
		}
		key := sched.Key()
		keys = append(keys, key)
		if !acc.Add(cti, pa, pb, key, ex) {
			t.Fatalf("fresh (cti, schedule) %d rejected", i)
		}
		// The replay: identical CTI and schedule key, relabelled.
		if acc.Add(cti, pa, pb, key, ex) {
			t.Fatalf("replayed (cti, schedule) %d double-counted", i)
		}
	}
	if acc.Len() != 3 {
		t.Fatalf("Len = %d, want 3", acc.Len())
	}
	if acc.Dups() != 3 {
		t.Fatalf("Dups = %d, want 3", acc.Dups())
	}
	for _, key := range keys {
		if !acc.Seen(cti.ID, key) {
			t.Fatalf("Seen(%d, %q) = false after ingest", cti.ID, key)
		}
	}
	// The same schedule key under a different CTI is a different example.
	other := ski.CTI{ID: 99, A: cti.A, B: cti.B}
	ex, _, err := col.LabelOne(other, pa, pb, ski.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	if !acc.Add(other, pa, pb, keys[0], ex) {
		t.Fatal("distinct CTI with a colliding schedule key rejected")
	}

	ds := acc.Snapshot()
	if got := ds.NumExamples(); got != 4 {
		t.Fatalf("snapshot has %d examples, want 4", got)
	}
	if len(ds.Groups) != 2 {
		t.Fatalf("snapshot has %d groups, want 2", len(ds.Groups))
	}
}

// Snapshot must be an independent copy: later ingests do not mutate a
// snapshot the trainer already took.
func TestAccumulatorSnapshotIsolated(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(31))
	col := NewCollector(k, 32)
	cti, pa, pb, err := col.NewCTI(0)
	if err != nil {
		t.Fatal(err)
	}
	sampler := ski.NewSampler(pa, pb, 33)
	acc := NewAccumulator()
	seen := map[string]bool{}
	add := func() {
		t.Helper()
		sched, ok := sampler.NextUnique(seen, 50)
		if !ok {
			t.Fatal("sampler dried up")
		}
		ex, _, err := col.LabelOne(cti, pa, pb, sched)
		if err != nil {
			t.Fatal(err)
		}
		if !acc.Add(cti, pa, pb, sched.Key(), ex) {
			t.Fatal("fresh schedule rejected")
		}
	}
	add()
	snap := acc.Snapshot()
	want := snap.NumExamples()
	add()
	if snap.NumExamples() != want {
		t.Fatalf("snapshot grew after a later ingest: %d -> %d", want, snap.NumExamples())
	}
	if !reflect.DeepEqual(snap.Flatten(), acc.Flat()[:want]) {
		t.Fatal("snapshot examples are not a prefix of the flat view")
	}
}
