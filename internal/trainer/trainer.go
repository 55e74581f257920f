// Package trainer closes the second half of the online learning loop: it
// snapshots the dataset a stream.Bus accumulates, warm-start retrains the
// PIC model on the fresh examples (pic.Model.TrainIncremental — the Adam
// schedule persists across rounds, so chunked retraining equals one
// continuous online pass), and publishes each retrained model as a new
// immutable version into a serve.Server's registry under live traffic.
//
// Version consistency during a rollout is the serve registry's contract,
// not the trainer's: the trainer only ever publishes a *clone* of its
// live training copy (the weights it keeps stepping are never the weights
// anyone serves), the registry activates the clone atomically, and
// in-flight batches finish on whatever snapshot pointer they read. See
// DESIGN.md §13 for the full argument.
package trainer

import (
	"fmt"
	"sync"

	"snowcat/internal/pic"
	"snowcat/internal/serve"
	"snowcat/internal/stream"
)

// Publisher rolls a new model version out to a serving target.
// PublishTo adapts a serve.Server; tests substitute a recording fake.
type Publisher interface {
	Publish(version string, m *pic.Model, tc *pic.TokenCache) error
}

// serverPublisher publishes into one serve.Server: load, then hot-swap.
type serverPublisher struct{ s *serve.Server }

func (p serverPublisher) Publish(v string, m *pic.Model, tc *pic.TokenCache) error {
	if err := p.s.Registry().Load(v, m, tc); err != nil {
		return err
	}
	return p.s.Swap(v)
}

// PublishTo adapts a single server to the Publisher seam.
func PublishTo(s *serve.Server) Publisher { return serverPublisher{s: s} }

// Config tunes the retraining schedule.
type Config struct {
	// RetrainEvery is the simulated seconds between retrain rounds;
	// <= 0 disables retraining entirely (the frozen-model baseline).
	RetrainEvery float64
	// MinNew skips a due round with fewer fresh examples than this
	// (retraining on a near-empty batch buys nothing but a version bump);
	// <= 0 selects 1.
	MinNew int
	// Tune retunes the decision threshold on each round's fresh batch.
	Tune bool
}

func (c Config) minNew() int {
	if c.MinNew <= 0 {
		return 1
	}
	return c.MinNew
}

// RoundStats records one published retrain round.
type RoundStats struct {
	Version   string  // published version name ("v2", "v3", ...)
	AtSeconds float64 // simulated clock when the round ran
	New       int     // fresh examples folded in
	Total     int     // cumulative examples folded across all rounds
	Loss      float64 // mean training loss over the fresh batch
	Threshold float64 // decision threshold of the published model
}

// Trainer owns the live training copy of the model and the warm-start
// optimiser state. Methods are safe for concurrent use (the under-load
// proof retrains from a background goroutine while loadgen traffic
// flows), though the deterministic learn loop calls them sequentially.
type Trainer struct {
	mu     sync.Mutex
	m      *pic.Model // live training copy; never served directly
	tc     *pic.TokenCache
	st     *pic.TrainState
	bus    *stream.Bus
	pub    Publisher
	cfg    Config
	next   int     // next version ordinal to publish
	folded int     // bus flat-index consumed so far
	last   float64 // simulated seconds at the last round
	rounds []RoundStats
}

// New builds a trainer warm-starting from m0 (cloned — the caller's model
// is never mutated, so the frozen v1 the registry serves stays pristine).
func New(m0 *pic.Model, tc *pic.TokenCache, bus *stream.Bus, pub Publisher, cfg Config) (*Trainer, error) {
	live, err := m0.Clone()
	if err != nil {
		return nil, fmt.Errorf("trainer: cloning the training copy: %w", err)
	}
	return &Trainer{
		m: live, tc: tc, st: live.NewTrainState(),
		bus: bus, pub: pub, cfg: cfg, next: 2,
	}, nil
}

// Due reports whether the simulated clock has advanced past the next
// scheduled retrain round.
func (t *Trainer) Due(simSeconds float64) bool {
	if t.cfg.RetrainEvery <= 0 {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return simSeconds-t.last >= t.cfg.RetrainEvery
}

// MaybeRound runs one retrain round if the simulated clock says one is
// due. Returns nil when no round ran (not due, or too few fresh
// examples).
func (t *Trainer) MaybeRound(simSeconds float64) (*RoundStats, error) {
	if !t.Due(simSeconds) {
		return nil, nil
	}
	return t.Round(simSeconds)
}

// Round retrains on everything streamed since the last round and, when
// the fresh batch clears MinNew, publishes the result as the next
// version. The published model is a clone: the live weights keep training
// after the publish, the served snapshot never changes again.
func (t *Trainer) Round(simSeconds float64) (*RoundStats, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// The round consumes the clock tick even when it skips, so a sparse
	// stream doesn't retrain on every subsequent settle.
	t.last = simSeconds
	_, flat, err := t.bus.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("trainer: snapshotting the stream: %w", err)
	}
	fresh := flat[t.folded:]
	if len(fresh) < t.cfg.minNew() {
		return nil, nil
	}
	stats, err := t.m.TrainIncremental(t.st, fresh, t.tc)
	if err != nil {
		return nil, err
	}
	t.folded = len(flat)
	if t.cfg.Tune {
		t.m.Tune(fresh, t.tc)
	}
	clone, err := t.m.Clone()
	if err != nil {
		return nil, fmt.Errorf("trainer: cloning for publish: %w", err)
	}
	version := fmt.Sprintf("v%d", t.next)
	if err := t.pub.Publish(version, clone, t.tc); err != nil {
		return nil, fmt.Errorf("trainer: publishing %s: %w", version, err)
	}
	t.next++
	round := RoundStats{
		Version: version, AtSeconds: simSeconds,
		New: stats.Examples, Total: t.folded,
		Loss: stats.Loss, Threshold: t.m.Threshold,
	}
	t.rounds = append(t.rounds, round)
	return &round, nil
}

// Rounds returns the published rounds so far.
func (t *Trainer) Rounds() []RoundStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]RoundStats(nil), t.rounds...)
}

// Versions lists the published version names in publish order.
func (t *Trainer) Versions() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.rounds))
	for i, r := range t.rounds {
		out[i] = r.Version
	}
	return out
}

// Steps returns the cumulative warm-start optimiser steps taken.
func (t *Trainer) Steps() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.st.Steps()
}
