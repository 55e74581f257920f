package stream

import (
	"reflect"
	"testing"

	"snowcat/internal/dataset"
	"snowcat/internal/explore"
	"snowcat/internal/kernel"
	"snowcat/internal/ski"
)

// streamFixture executes a few schedules per CTI and returns the
// outcomes, in the deterministic order a campaign fold would publish them.
func streamFixture(t testing.TB, seed uint64, ctis, per int) (*dataset.Collector, []Outcome) {
	t.Helper()
	k := kernel.Generate(kernel.SmallConfig(seed))
	col := dataset.NewCollector(k, seed+1)
	var outs []Outcome
	for i := 0; i < ctis; i++ {
		cti, pa, pb, err := col.NewCTI(int64(i))
		if err != nil {
			t.Fatal(err)
		}
		sampler := ski.NewSampler(pa, pb, seed+2+uint64(i))
		seen := map[string]bool{}
		for j := 0; j < per; j++ {
			sched, ok := sampler.NextUnique(seen, 50)
			if !ok {
				break
			}
			res, err := ski.Execute(k, cti, sched)
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, Outcome{CTI: cti, Sched: sched, Res: res})
		}
	}
	if len(outs) < 2 {
		t.Fatalf("fixture too small: %d outcomes", len(outs))
	}
	return col, outs
}

func drain(t testing.TB, col *dataset.Collector, outs []Outcome, cfg Config) (*dataset.Dataset, *Bus) {
	t.Helper()
	b := New(col, cfg)
	for _, o := range outs {
		b.Publish(o.CTI, o.Sched, o.Res)
	}
	ds, err := b.Close()
	if err != nil {
		t.Fatal(err)
	}
	return ds, b
}

// The deterministic-drain property: the accumulated dataset is
// bit-identical at every worker count and buffer size.
func TestBusDeterministicDrain(t *testing.T) {
	col, outs := streamFixture(t, 51, 4, 3)
	ref, _ := drain(t, col, outs, Config{Workers: 1, Buffer: 64})
	for _, cfg := range []Config{
		{Workers: 4, Buffer: 64},
		{Workers: 4, Buffer: 3},
		{Workers: 1, Buffer: 1},
	} {
		ds, _ := drain(t, col, outs, cfg)
		if !reflect.DeepEqual(ref, ds) {
			t.Fatalf("dataset differs at %+v", cfg)
		}
	}
	if ref.NumExamples() != len(outs) {
		t.Fatalf("dataset has %d examples, want %d", ref.NumExamples(), len(outs))
	}
}

// Backpressure: the queue never grows past the buffer bound — the
// publisher pays the flush inline instead.
func TestBusBackpressureBound(t *testing.T) {
	col, outs := streamFixture(t, 52, 3, 4)
	b := New(col, Config{Buffer: 4})
	for _, o := range outs {
		b.Publish(o.CTI, o.Sched, o.Res)
	}
	st := b.Stats()
	if st.HighWater > 4 {
		t.Fatalf("high water %d exceeds buffer 4", st.HighWater)
	}
	if want := len(outs) / 4; st.Flushes < want {
		t.Fatalf("flushes = %d, want >= %d", st.Flushes, want)
	}
	if _, err := b.Close(); err != nil {
		t.Fatal(err)
	}
	st = b.Stats()
	if st.Published != len(outs) {
		t.Fatalf("published = %d, want %d", st.Published, len(outs))
	}
	if st.Ingested+st.Deduped != st.Published {
		t.Fatalf("drain lost outcomes: ingested %d + deduped %d != published %d",
			st.Ingested, st.Deduped, st.Published)
	}
}

// Close is a seal: a late publish is a bug in the harness, and it panics
// rather than silently dropping a label.
func TestBusPublishAfterClosePanics(t *testing.T) {
	col, outs := streamFixture(t, 53, 1, 2)
	b := New(col, Config{})
	if _, err := b.Close(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("publish on a closed bus did not panic")
		}
	}()
	b.Publish(outs[0].CTI, outs[0].Sched, outs[0].Res)
}

// Replayed outcomes — the fault layer retrying, a round re-run —
// fold in exactly once.
func TestBusDedupesReplays(t *testing.T) {
	col, outs := streamFixture(t, 54, 3, 3)
	ref, _ := drain(t, col, outs, Config{})
	twice := append(append([]Outcome(nil), outs...), outs...)
	ds, b := drain(t, col, twice, Config{Buffer: 5})
	if !reflect.DeepEqual(ref, ds) {
		t.Fatal("replayed publishes changed the dataset")
	}
	if st := b.Stats(); st.Deduped != len(outs) {
		t.Fatalf("deduped = %d, want %d", st.Deduped, len(outs))
	}
}

// Hooks chains: the bus taps ScheduleExecuted and forwards to the wrapped
// hooks; other fields pass through untouched.
func TestBusHooksChain(t *testing.T) {
	col, outs := streamFixture(t, 55, 1, 3)
	b := New(col, Config{})
	var forwarded, proposed int
	h := b.Hooks(&explore.Hooks{
		ScheduleExecuted:  func(c explore.Candidate, res *ski.Result) { forwarded++ },
		CandidateProposed: func(c explore.Candidate) { proposed++ },
	})
	for j, o := range outs {
		h.ScheduleExecutedHook(explore.Candidate{Seq: j, CTI: o.CTI, Sched: o.Sched}, o.Res)
		h.CandidateProposed(explore.Candidate{})
	}
	if forwarded != len(outs) || proposed != len(outs) {
		t.Fatalf("forwarded %d, proposed %d, want %d each", forwarded, proposed, len(outs))
	}
	if st := b.Stats(); st.Published != len(outs) {
		t.Fatalf("bus published %d, want %d", st.Published, len(outs))
	}
	if _, err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// Snapshot's flat view is append-only: a consumer holding offset n reads
// flat[n:] as exactly the examples ingested since.
func TestBusSnapshotAppendOnly(t *testing.T) {
	col, outs := streamFixture(t, 56, 2, 4)
	b := New(col, Config{})
	half := len(outs) / 2
	for _, o := range outs[:half] {
		b.Publish(o.CTI, o.Sched, o.Res)
	}
	_, flat1, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(flat1) != half {
		t.Fatalf("first snapshot has %d examples, want %d", len(flat1), half)
	}
	for _, o := range outs[half:] {
		b.Publish(o.CTI, o.Sched, o.Res)
	}
	_, flat2, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(flat2) != len(outs) {
		t.Fatalf("second snapshot has %d examples, want %d", len(flat2), len(outs))
	}
	if !reflect.DeepEqual(flat1, flat2[:half]) {
		t.Fatal("earlier flat view is not a prefix of the later one")
	}
}
