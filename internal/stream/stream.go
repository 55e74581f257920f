// Package stream closes the first half of the online learning loop: it
// taps the exploration pipeline's executed-schedule seam (explore.Hooks)
// and turns every dynamic execution the campaign already paid for into a
// labelled pic.Example, accumulated into a dataset.Dataset the background
// trainer snapshots from.
//
// The bus is deliberately synchronous: outcomes buffer in a bounded queue
// and, when the queue fills, the *publisher* pays the labelling cost
// inline (backpressure — the producer slows instead of memory growing).
// Publishes arrive from the pipeline's canonical sequential fold points
// (see explore.Hooks), so labelling batches always form in execution
// order, workers only parallelise the pure per-outcome labelling inside a
// batch, and the accumulated dataset is bit-identical at every worker
// count and buffer size. Close drains the queue deterministically and
// seals the bus.
//
// Deduplication rides the dataset.Accumulator: a retried execution
// replayed by the fault layer, or a round replayed after a failed
// scoring call, folds into the dataset exactly once.
package stream

import (
	"fmt"
	"sync"

	"snowcat/internal/ctgraph"
	"snowcat/internal/dataset"
	"snowcat/internal/explore"
	"snowcat/internal/parallel"
	"snowcat/internal/pic"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
)

// Config sizes a bus.
type Config struct {
	// Buffer bounds the outcome queue: a Publish that fills it flushes
	// the whole queue inline before returning. <= 0 selects 64.
	Buffer int
	// Workers bounds the labelling pool per flush; <= 0 selects 1. The
	// accumulated dataset is identical at every worker count.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Buffer <= 0 {
		c.Buffer = 64
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	return c
}

// Outcome is one executed schedule awaiting labelling.
type Outcome struct {
	CTI   ski.CTI
	Sched ski.Schedule
	Res   *ski.Result
}

// Stats snapshots the bus counters.
type Stats struct {
	Published int // outcomes accepted by Publish
	Ingested  int // labelled examples folded into the dataset
	Deduped   int // replayed executions rejected by the accumulator
	Flushes   int // labelling batches run
	HighWater int // max queue depth observed (never exceeds Buffer)
}

// ctiState caches one CTI's per-bus labelling context: the sequential
// profiles and the schedule-independent graph skeleton, built on the
// CTI's first outcome and reused for every later one.
type ctiState struct {
	pa, pb *syz.Profile
	base   *ctgraph.Base
}

// Bus is the outcome bus. All methods are safe for concurrent use; the
// deterministic paths call them from one goroutine anyway.
type Bus struct {
	mu     sync.Mutex
	col    *dataset.Collector
	cfg    Config
	q      []Outcome
	ctis   map[int64]*ctiState
	acc    *dataset.Accumulator
	stats  Stats
	closed bool
	err    error // sticky first profiling failure
}

// New opens a bus labelling through the collector's kernel and builder.
// The collector's executor is never used — the bus labels results that
// already ran.
func New(col *dataset.Collector, cfg Config) *Bus {
	return &Bus{
		col:  col,
		cfg:  cfg.withDefaults(),
		ctis: make(map[int64]*ctiState),
		acc:  dataset.NewAccumulator(),
	}
}

// Publish enqueues one executed outcome, flushing the queue inline when
// it reaches the buffer bound. Publishing on a closed bus panics — the
// hooks must be detached before Close, and a late publish would silently
// drop a label.
func (b *Bus) Publish(cti ski.CTI, sched ski.Schedule, res *ski.Result) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		panic("stream: Publish on a closed bus")
	}
	b.q = append(b.q, Outcome{CTI: cti, Sched: sched, Res: res})
	b.stats.Published++
	if len(b.q) > b.stats.HighWater {
		b.stats.HighWater = len(b.q)
	}
	if len(b.q) >= b.cfg.Buffer {
		b.flushLocked()
	}
}

// Hooks returns an explore.Hooks that publishes every executed schedule
// to the bus and then forwards to next (which may be nil). All other hook
// fields pass through unchanged.
func (b *Bus) Hooks(next *explore.Hooks) *explore.Hooks {
	h := &explore.Hooks{}
	if next != nil {
		*h = *next
	}
	fwd := h.ScheduleExecuted
	h.ScheduleExecuted = func(c explore.Candidate, res *ski.Result) {
		b.Publish(c.CTI, c.Sched, res)
		if fwd != nil {
			fwd(c, res)
		}
	}
	return h
}

// flushLocked labels the queued outcomes and folds them into the
// accumulator in queue order. The caller holds b.mu.
func (b *Bus) flushLocked() {
	if len(b.q) == 0 || b.err != nil {
		b.q = b.q[:0]
		return
	}
	batch := b.q
	b.q = nil
	b.stats.Flushes++
	// Per-CTI contexts build sequentially in first-seen order (profiling
	// draws no randomness, but error attribution should be deterministic).
	for i := range batch {
		if err := b.ctiStateLocked(batch[i].CTI); err != nil {
			b.err = err
			return
		}
	}
	// Labelling one outcome is a pure function of (base, sched, res) and
	// bases are safe for concurrent WithSchedule, so the batch fans out;
	// the results stay index-aligned with the batch.
	exs, _ := parallel.Map(parallel.Workers(b.cfg.Workers), len(batch), func(i int) (*pic.Example, error) {
		o := batch[i]
		return b.col.LabelResult(b.ctis[o.CTI.ID].base, o.Sched, o.Res), nil
	})
	for i, ex := range exs {
		o := batch[i]
		st := b.ctis[o.CTI.ID]
		if b.acc.Add(o.CTI, st.pa, st.pb, o.Sched.Key(), ex) {
			b.stats.Ingested++
		} else {
			b.stats.Deduped++
		}
	}
}

// ctiStateLocked ensures the CTI's labelling context exists.
func (b *Bus) ctiStateLocked(cti ski.CTI) error {
	if b.ctis[cti.ID] != nil {
		return nil
	}
	pa, err := syz.Run(b.col.K, cti.A)
	if err != nil {
		return fmt.Errorf("stream: profiling cti %d A: %w", cti.ID, err)
	}
	pb, err := syz.Run(b.col.K, cti.B)
	if err != nil {
		return fmt.Errorf("stream: profiling cti %d B: %w", cti.ID, err)
	}
	b.ctis[cti.ID] = &ctiState{pa: pa, pb: pb, base: b.col.Builder.BuildBase(cti, pa, pb)}
	return nil
}

// Flush drains the queue now, returning the sticky profiling error if any
// flush has failed.
func (b *Bus) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.flushLocked()
	return b.err
}

// Snapshot flushes and returns (a copy of the accumulated dataset, the
// ingest-order example view). The flat slice is append-only: a trainer
// holding n from its last round consumes flat[n:] as the fresh examples.
func (b *Bus) Snapshot() (*dataset.Dataset, []*pic.Example, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.flushLocked()
	if b.err != nil {
		return nil, nil, b.err
	}
	return b.acc.Snapshot(), b.acc.Flat(), nil
}

// Close drains the queue and seals the bus — the deterministic
// drain-on-close contract: everything published before Close is labelled
// and folded, in publish order, before Close returns. Further Publishes
// panic; Close is idempotent.
func (b *Bus) Close() (*dataset.Dataset, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.closed {
		b.flushLocked()
		b.closed = true
	}
	if b.err != nil {
		return nil, b.err
	}
	return b.acc.Snapshot(), nil
}

// Stats snapshots the counters (flushing nothing).
func (b *Bus) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}
