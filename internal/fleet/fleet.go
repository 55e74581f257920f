// Package fleet runs the prediction service as a sharded fleet: N serve
// servers, each owning a consistent-hash partition of the CTI space, a
// deterministic fan-out coordinator that drives campaigns over them, and
// an open-loop load generator for measuring the fleet under traffic.
//
// The design splits responsibilities so the determinism story stays
// structural rather than lucky:
//
//   - the Ring (internal/serve) is a pure function of the shard count, so
//     every client routes a CTI to the same shard forever — each shard's
//     CTI station and BaseContext LRU stay hot for a stable partition;
//   - shards serve predictions only; profiling for planning, dynamic
//     executions and the result fold stay on the coordinator, whose
//     sequential fold is the campaign's canonical spine;
//   - predictions are bit-identical to the in-process model at any batch
//     composition (the serve coalescer's contract), so a fleet campaign's
//     History is DeepEqual to the single-process run at any shard count.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"snowcat/internal/ctgraph"
	"snowcat/internal/kernel"
	"snowcat/internal/pic"
	"snowcat/internal/predictor"
	"snowcat/internal/serve"
)

// Config sizes a fleet.
type Config struct {
	// Shards is the fleet size; must be positive.
	Shards int
	// Replicas is the ring's virtual-node count per shard;
	// <= 0 selects serve.DefaultReplicas.
	Replicas int
	// Serve configures every shard's server. Its Kernel is ignored: each
	// shard's station always runs on the fleet's kernel.
	Serve serve.Config
}

// Fleet is an in-process shard group: one serve.Server per shard, all
// serving the same model, plus the ring that partitions the CTI space
// across them. Kill and Restart simulate shard loss and recovery — a
// restarted shard starts cold (empty station and context caches) but
// scores identically, which is what the coordinator's retry leans on.
type Fleet struct {
	k    *kernel.Kernel
	cfg  Config
	ring *serve.Ring

	mu      sync.Mutex
	model   *pic.Model      // current model; advances on Publish
	tc      *pic.TokenCache // current token cache
	version string          // current version name; "v1" until Publish
	shards  []*serve.Server // nil while a shard is down
}

// New starts a fleet of cfg.Shards shards serving the given model.
func New(k *kernel.Kernel, model *pic.Model, tc *pic.TokenCache, cfg Config) (*Fleet, error) {
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("fleet: shard count must be positive, got %d", cfg.Shards)
	}
	f := &Fleet{
		k: k, model: model, tc: tc, version: "v1", cfg: cfg,
		ring:   serve.NewRing(cfg.Shards, cfg.Replicas),
		shards: make([]*serve.Server, cfg.Shards),
	}
	for i := range f.shards {
		s, err := f.newShard()
		if err != nil {
			f.Close()
			return nil, err
		}
		f.shards[i] = s
	}
	return f, nil
}

// newShard boots one shard server with its own registry (hot-swaps are
// per-shard) over the shared read-only model weights. The shard starts on
// the fleet's *current* version — a shard restarted after a Publish comes
// back serving the newest model, not the boot-time one.
func (f *Fleet) newShard() (*serve.Server, error) {
	reg := serve.NewRegistry()
	if err := reg.Load(f.version, f.model, f.tc); err != nil {
		return nil, fmt.Errorf("fleet: shard registry: %w", err)
	}
	if _, err := reg.Activate(f.version); err != nil {
		return nil, fmt.Errorf("fleet: shard registry: %w", err)
	}
	cfg := f.cfg.Serve
	cfg.Kernel = f.k
	return serve.New(reg, cfg), nil
}

// Ring returns the fleet's routing table.
func (f *Fleet) Ring() *serve.Ring { return f.ring }

// Shards returns the fleet size (including down shards).
func (f *Fleet) Shards() int { return f.ring.Shards() }

// Server returns shard i's server, or nil while it is down.
func (f *Fleet) Server(i int) *serve.Server {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.shards[i]
}

// Kill takes shard i down: its server closes (draining admitted requests)
// and all its cached CTI state is lost. Requests routed to it fail with
// ShardDownError until Restart.
func (f *Fleet) Kill(i int) {
	f.mu.Lock()
	s := f.shards[i]
	f.shards[i] = nil
	f.mu.Unlock()
	if s != nil {
		s.Close()
	}
}

// Restart brings shard i back with a fresh server — cold caches, same
// model, same ring position. A no-op if the shard is already up.
func (f *Fleet) Restart(i int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.shards[i] != nil {
		return nil
	}
	s, err := f.newShard()
	if err != nil {
		return err
	}
	f.shards[i] = s
	return nil
}

// Publish rolls a new model version out fleet-wide: every live shard's
// registry loads it and hot-swaps to it (serve.Server.Swap — in-flight
// batches finish on the snapshot they acquired, so no response ever mixes
// versions), and the fleet's notion of the current model advances so a
// later Restart boots straight onto it. Down shards are skipped — they
// pick the version up when Restart rebuilds their registry. The model
// must be ready for concurrent inference (a fresh clone, never weights a
// trainer keeps mutating). Publish satisfies the trainer's Publisher
// seam.
func (f *Fleet) Publish(version string, m *pic.Model, tc *pic.TokenCache) error {
	f.mu.Lock()
	if version == f.version {
		f.mu.Unlock()
		return fmt.Errorf("fleet: version %q is already current", version)
	}
	f.model, f.tc, f.version = m, tc, version
	shards := append([]*serve.Server(nil), f.shards...)
	f.mu.Unlock()
	for i, s := range shards {
		if s == nil {
			continue
		}
		// A shard restarted between the snapshot and here already booted
		// on the new version; the duplicate load is success, not failure.
		if err := s.Registry().Load(version, m, tc); err != nil && !errors.Is(err, serve.ErrDuplicateModel) {
			return fmt.Errorf("fleet: publishing %q to shard %d: %w", version, i, err)
		}
		if err := s.Swap(version); err != nil {
			return fmt.Errorf("fleet: activating %q on shard %d: %w", version, i, err)
		}
	}
	return nil
}

// Version returns the fleet's current model version name.
func (f *Fleet) Version() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.version
}

// Close shuts every live shard down.
func (f *Fleet) Close() {
	f.mu.Lock()
	shards := append([]*serve.Server(nil), f.shards...)
	for i := range f.shards {
		f.shards[i] = nil
	}
	f.mu.Unlock()
	for _, s := range shards {
		if s != nil {
			s.Close()
		}
	}
}

// Stats snapshots every live shard's counters; down shards yield a zero
// snapshot.
func (f *Fleet) Stats() []serve.StatsSnapshot {
	out := make([]serve.StatsSnapshot, f.Shards())
	for i := range out {
		if s := f.Server(i); s != nil {
			out[i] = s.Stats()
		}
	}
	return out
}

// ShardDownError reports a request routed to a killed shard. The
// error-returning client methods (ScoreE, ScoreBatchE, ThresholdE,
// BeginCTIE) wrap it with %w so errors.As recovers the shard index; the
// predictor.Predictor shims still panic with it (that interface has no
// error channel) and the coordinator recovers the panic and turns it into
// restart-and-retry.
type ShardDownError struct {
	Shard int
}

func (e ShardDownError) Error() string {
	return fmt.Sprintf("fleet: shard %d is down", e.Shard)
}

// Client is the fleet's predictor.Predictor: scoring requests route to the
// shard owning the graph's CTI, so each shard only ever sees its ring
// partition and its caches stay hot. Scores are bit-identical to the
// in-process model at any shard count.
type Client struct {
	f *Fleet
	// Label is the predictor name in reports; empty selects "fleet(N)".
	Label string
}

var (
	_ predictor.Predictor   = (*Client)(nil)
	_ predictor.BatchScorer = (*Client)(nil)
	_ predictor.CTIScorer   = (*Client)(nil)
)

// Client returns a routing client over the fleet.
func (f *Fleet) Client(label string) *Client { return &Client{f: f, Label: label} }

// shardFor routes a graph: by its base's CTI when it has one, shard 0
// otherwise (a graph without a base carries no identity to route by).
func (c *Client) shardFor(g *ctgraph.Graph) int {
	if b := g.BaseOf(); b != nil {
		return c.f.ring.Shard(b.CTI.ID)
	}
	return 0
}

// server returns shard i's live server or an error wrapping
// ShardDownError.
func (c *Client) server(i int) (*serve.Server, error) {
	s := c.f.Server(i)
	if s == nil {
		return nil, fmt.Errorf("fleet: routing to shard %d: %w", i, ShardDownError{Shard: i})
	}
	return s, nil
}

// mustPanic converts an error from the graceful API back into the panic
// the error-free predictor interfaces contract on: the typed
// ShardDownError value when one is wrapped (the coordinator's recover
// matches on it), the raw error otherwise.
func mustPanic(err error) {
	var down ShardDownError
	if errors.As(err, &down) {
		panic(down)
	}
	panic(err)
}

// Score implements predictor.Predictor via a one-graph request to the
// owning shard. It panics on a down shard; ScoreE degrades gracefully.
func (c *Client) Score(g *ctgraph.Graph) []float64 {
	scores, err := c.ScoreE(g)
	if err != nil {
		mustPanic(err)
	}
	return scores
}

// ScoreE is Score with an error channel: a request routed to a killed
// shard returns an error wrapping ShardDownError instead of panicking,
// so callers with error plumbing can degrade or retry instead of
// crashing the round.
func (c *Client) ScoreE(g *ctgraph.Graph) ([]float64, error) {
	rows, err := c.scoreShard(c.shardFor(g), []*ctgraph.Graph{g})
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

// ScoreBatch implements predictor.BatchScorer. Graphs partition by owning
// shard, preserving order within each shard's request, and the results
// reassemble index-aligned with gs — per-graph scores are unchanged by
// the partitioning (the coalescer's batch-composition contract).
func (c *Client) ScoreBatch(gs []*ctgraph.Graph, workers int) [][]float64 {
	out, err := c.ScoreBatchE(gs, workers)
	if err != nil {
		mustPanic(err)
	}
	return out
}

// ScoreBatchE is ScoreBatch with an error channel (see ScoreE).
func (c *Client) ScoreBatchE(gs []*ctgraph.Graph, workers int) ([][]float64, error) {
	if len(gs) == 0 {
		return nil, nil
	}
	parts := make(map[int][]int) // shard -> indices into gs, ascending
	order := make([]int, 0, 4)   // shards in first-seen order
	for i, g := range gs {
		s := c.shardFor(g)
		if _, ok := parts[s]; !ok {
			order = append(order, s)
		}
		parts[s] = append(parts[s], i)
	}
	out := make([][]float64, len(gs))
	for _, s := range order {
		idx := parts[s]
		sub := make([]*ctgraph.Graph, len(idx))
		for j, i := range idx {
			sub[j] = gs[i]
		}
		rows, err := c.scoreShard(s, sub)
		if err != nil {
			return nil, err
		}
		for j, scores := range rows {
			out[idx[j]] = scores
		}
	}
	return out, nil
}

func (c *Client) scoreShard(shard int, gs []*ctgraph.Graph) ([][]float64, error) {
	s, err := c.server(shard)
	if err != nil {
		return nil, err
	}
	resp, err := s.Predict(context.Background(), &serve.Request{Graphs: gs, Wait: true})
	if err != nil {
		// A shard killed mid-request surfaces serve.ErrClosed; map it to
		// the typed shard-down error the coordinator restarts on.
		return nil, fmt.Errorf("fleet: scoring %d graphs on shard %d: %w (%v)",
			len(gs), shard, ShardDownError{Shard: shard}, err)
	}
	return resp.Scores, nil
}

// Threshold implements predictor.Predictor from the first live shard's
// active model (all shards serve the same weights). It panics when no
// shard is live; ThresholdE degrades gracefully.
func (c *Client) Threshold() float64 {
	t, err := c.ThresholdE()
	if err != nil {
		mustPanic(err)
	}
	return t
}

// ThresholdE is Threshold with an error channel: when no live shard has
// an active model it returns an error wrapping ShardDownError for shard
// 0 (the canonical routing fallback) instead of panicking.
func (c *Client) ThresholdE() (float64, error) {
	for i := 0; i < c.f.Shards(); i++ {
		if s := c.f.Server(i); s != nil {
			if snap := s.Registry().Active(); snap != nil {
				return snap.Model.Threshold, nil
			}
		}
	}
	return 0, fmt.Errorf("fleet: no live shard with an active model: %w", ShardDownError{Shard: 0})
}

// Name implements predictor.Predictor.
func (c *Client) Name() string {
	if c.Label != "" {
		return c.Label
	}
	return fmt.Sprintf("fleet(%d)", c.f.Shards())
}

// BeginCTI implements predictor.CTIScorer by priming the owning shard's
// BaseContext cache, the per-CTI amortisation bracket. It panics on a
// down shard; BeginCTIE degrades gracefully.
func (c *Client) BeginCTI(base *ctgraph.Base) {
	if err := c.BeginCTIE(base); err != nil {
		mustPanic(err)
	}
}

// BeginCTIE is BeginCTI with an error channel (see ScoreE).
func (c *Client) BeginCTIE(base *ctgraph.Base) error {
	if base == nil {
		return nil
	}
	s, err := c.server(c.f.ring.Shard(base.CTI.ID))
	if err != nil {
		return err
	}
	if snap := s.Registry().Active(); snap != nil {
		s.Cache().Get(snap, base)
	}
	return nil
}

// EndCTI implements predictor.CTIScorer; eviction is the LRU's job.
func (c *Client) EndCTI() {}
