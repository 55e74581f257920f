package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"snowcat/internal/ctgraph"
	"snowcat/internal/kernel"
	"snowcat/internal/parallel"
	"snowcat/internal/pic"
)

// Admission and serving errors.
var (
	// ErrOverloaded reports a request shed because the admission queue was
	// full — the backpressure signal callers retry against.
	ErrOverloaded = errors.New("serve: overloaded, admission queue full")
	// ErrDeadline reports a request whose deadline expired before its
	// batch was scored (load shedding under sustained overload).
	ErrDeadline = errors.New("serve: deadline expired before scoring")
	// ErrClosed reports a request against a closed (or closing) server.
	ErrClosed = errors.New("serve: server closed")
	// ErrModelVersion reports a request pinned to a version that was not
	// active when its batch scored.
	ErrModelVersion = errors.New("serve: requested model version is not active")
	// ErrBadRequest reports a structurally invalid request.
	ErrBadRequest = errors.New("serve: invalid request")
)

// Config tunes one Server. The zero value is usable: defaults are applied
// by New.
type Config struct {
	// MaxBatch caps how many graphs one inference batch may carry;
	// <= 0 selects 32. The dispatcher coalesces requests already queued
	// behind the first and never waits for more. Requests are never split
	// across batches, so a request larger than MaxBatch forms its own
	// oversized batch.
	MaxBatch int
	// Workers bounds the scoring pool per batch; <= 0 selects GOMAXPROCS.
	Workers int
	// QueueDepth bounds the admission queue (in requests); <= 0 selects
	// 256. A full queue sheds non-waiting requests with ErrOverloaded.
	QueueDepth int
	// Deadline is the default per-request deadline applied at admission
	// when the request carries none; 0 disables default deadlines.
	Deadline time.Duration
	// CacheSize bounds the BaseContext LRU; <= 0 selects 64.
	CacheSize int
	// Kernel, when non-nil, enables the CTI station: the server can then
	// score raw (CTI, schedules) requests, profiling the STIs and building
	// the base graph itself on a station miss. nil keeps the server
	// kernel-agnostic: it scores in-process graph requests only, and
	// /v1/predict_cti answers 501.
	Kernel *kernel.Kernel
	// StationSize bounds the CTI station LRU (in CTIs); <= 0 selects 64.
	// Ignored when Kernel is nil.
	StationSize int
	// Sync selects the deterministic synchronous mode: requests are
	// scored inline on the caller's goroutine with no queue or
	// dispatcher, so a single-client call sequence is exactly as
	// reproducible as calling pic.Model.PredictAllCtx directly. Batched
	// and sync predictions are bit-identical either way; Sync only
	// removes scheduling non-determinism (and cross-request coalescing).
	Sync bool
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 64
	}
	if c.StationSize <= 0 {
		c.StationSize = 64
	}
	return c
}

// Request is one prediction request: score every graph with the active
// model. Graphs built via ctgraph.Base.WithSchedule reuse the per-CTI
// BaseContext cache automatically (keyed by Graph.BaseOf).
type Request struct {
	Graphs []*ctgraph.Graph
	// Model, when non-empty, pins the request to a version: it fails with
	// ErrModelVersion instead of scoring against any other version.
	Model string
	// Deadline, when non-zero, sheds the request with ErrDeadline if its
	// batch has not started scoring by then.
	Deadline time.Time
	// Wait makes admission block while the queue is full instead of
	// shedding with ErrOverloaded — the in-process client mode, where
	// backpressure should slow the producer rather than fail it.
	Wait bool
}

// Response carries the scores of one request. Every graph of a request is
// scored by one model snapshot, so Model and Threshold are consistent
// across the whole response — hot-swaps never mix versions inside one.
type Response struct {
	Model     string
	Threshold float64
	Scores    [][]float64
}

// pending is one admitted request waiting for its batch.
type pending struct {
	req   *Request
	reply chan result
}

type result struct {
	resp *Response
	err  error
}

// Server is the prediction service: admission queue, micro-batch
// coalescer, model registry, and BaseContext cache. Create with New,
// stop with Close (which drains admitted requests before returning).
type Server struct {
	cfg   Config
	reg   *Registry
	cache *BaseCache
	stats stats

	queue chan *pending
	quit  chan struct{} // closed by Close: stop accepting, start draining
	done  chan struct{} // closed when the dispatcher has drained and exited

	closed    sync.Once
	scratches []*pic.Scratch // dispatcher-owned inference arenas
	arenas    sync.Pool      // *[]*pic.Scratch sets lent to synchronous callers

	station *CTIStation // per-CTI state; nil unless configured

	mu     sync.Mutex
	served map[string]uint64 // graphs scored per model version
}

// New creates a server over a registry (which may be empty; requests fail
// with ErrNoModel until a model is loaded and activated) and starts its
// dispatcher unless cfg.Sync is set.
func New(reg *Registry, cfg Config) *Server {
	s := &Server{
		cfg:    cfg.withDefaults(),
		reg:    reg,
		served: make(map[string]uint64),
	}
	s.cache = NewBaseCache(s.cfg.CacheSize)
	if s.cfg.Kernel != nil {
		s.station = NewCTIStation(s.cfg.Kernel, s.cfg.StationSize)
	}
	s.queue = make(chan *pending, s.cfg.QueueDepth)
	s.quit = make(chan struct{})
	s.done = make(chan struct{})
	if s.cfg.Sync {
		close(s.done) // no dispatcher to wait for
	} else {
		go s.dispatch()
	}
	return s
}

// Registry returns the server's model registry.
func (s *Server) Registry() *Registry { return s.reg }

// Cache returns the server's BaseContext cache.
func (s *Server) Cache() *BaseCache { return s.cache }

// Swap activates version and invalidates the old snapshot's cached
// BaseContexts — the hot-swap entry point. In-flight batches finish on
// the old snapshot they read (their responses carry its version).
func (s *Server) Swap(version string) error {
	old, err := s.reg.Activate(version)
	if err != nil {
		return err
	}
	if old != nil && old.Version != version {
		s.cache.Invalidate(old)
		s.stats.swaps.Add(1)
	}
	return nil
}

// Predict scores one request, blocking until its batch completes, the
// context is cancelled, or admission fails. Safe for any number of
// concurrent callers.
func (s *Server) Predict(ctx context.Context, req *Request) (*Response, error) {
	if req == nil || len(req.Graphs) == 0 {
		return nil, fmt.Errorf("%w: no graphs", ErrBadRequest)
	}
	for i, g := range req.Graphs {
		if g == nil {
			return nil, fmt.Errorf("%w: graph %d is nil", ErrBadRequest, i)
		}
	}
	if s.isClosed() {
		return nil, ErrClosed
	}
	s.stats.requests.Add(1)
	s.stats.graphs.Add(uint64(len(req.Graphs)))
	start := time.Now()
	if req.Deadline.IsZero() && s.cfg.Deadline > 0 {
		r := *req
		r.Deadline = start.Add(s.cfg.Deadline)
		req = &r
	}
	if s.cfg.Sync {
		resp, err := s.serveOne(req)
		if err != nil {
			return nil, err
		}
		s.stats.lat.observe(time.Since(start).Nanoseconds())
		return resp, nil
	}

	p := &pending{req: req, reply: make(chan result, 1)}
	if req.Wait {
		select {
		case s.queue <- p:
		case <-s.quit:
			return nil, ErrClosed
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	} else {
		select {
		case s.queue <- p:
		default:
			s.stats.shed.Add(1)
			return nil, ErrOverloaded
		}
	}
	select {
	case r := <-p.reply:
		if r.err == nil {
			s.stats.lat.observe(time.Since(start).Nanoseconds())
		}
		return r.resp, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.done:
		// The dispatcher exited; it replies to everything it drained, so
		// only a request that lost the enqueue/shutdown race lands here.
		select {
		case r := <-p.reply:
			if r.err == nil {
				s.stats.lat.observe(time.Since(start).Nanoseconds())
			}
			return r.resp, r.err
		default:
			return nil, ErrClosed
		}
	}
}

// Close stops admission, drains the queued requests through the
// dispatcher, and waits for it to exit. Safe to call more than once.
func (s *Server) Close() error {
	s.closed.Do(func() { close(s.quit) })
	<-s.done
	return nil
}

// isClosed reports whether Close has begun.
func (s *Server) isClosed() bool {
	select {
	case <-s.quit:
		return true
	default:
		return false
	}
}

// Stats returns a point-in-time snapshot of every serving counter.
func (s *Server) Stats() StatsSnapshot {
	out := s.stats.snapshot()
	out.CacheHits, out.CacheMisses, out.CacheEvictions = s.cache.Counters()
	out.CacheLen = s.cache.Len()
	if s.station != nil {
		out.StationHits, out.StationMisses, _ = s.station.Counters()
	}
	out.QueueDepth = len(s.queue)
	out.ServedByModel = make(map[string]uint64)
	s.mu.Lock()
	for v, n := range s.served {
		out.ServedByModel[v] = n
	}
	s.mu.Unlock()
	return out
}

// dispatch is the coalescer loop: take the first pending request, add
// whatever is already queued behind it (gather), score the batch, and go
// again. On Close it drains whatever admission already accepted —
// graceful shutdown never drops an admitted request.
func (s *Server) dispatch() {
	defer close(s.done)
	for {
		select {
		case first := <-s.queue:
			s.runBatch(s.gather(first))
		case <-s.quit:
			for {
				select {
				case p := <-s.queue:
					s.runBatch(s.gather(p))
				default:
					return
				}
			}
		}
	}
}

// gather coalesces first with the requests already queued behind it, in
// FIFO order, until the batch holds MaxBatch graphs or the queue is
// empty. It never waits for a request to arrive and never splits one.
func (s *Server) gather(first *pending) []*pending {
	batch := []*pending{first}
	n := len(first.req.Graphs)
	for n < s.cfg.MaxBatch {
		select {
		case p := <-s.queue:
			batch = append(batch, p)
			n += len(p.req.Graphs)
		default:
			return batch
		}
	}
	return batch
}

// runBatch scores one coalesced batch on a single registry snapshot and
// replies to every member. Expired or version-mismatched members are
// rejected without scoring; the rest share one inference fan-out.
func (s *Server) runBatch(batch []*pending) {
	snap := s.reg.Active()
	if snap == nil {
		for _, p := range batch {
			s.stats.errors.Add(1)
			p.reply <- result{err: ErrNoModel}
		}
		return
	}

	now := time.Now()
	live := batch[:0]
	for _, p := range batch {
		switch {
		case !p.req.Deadline.IsZero() && now.After(p.req.Deadline):
			s.stats.expired.Add(1)
			p.reply <- result{err: ErrDeadline}
		case p.req.Model != "" && p.req.Model != snap.Version:
			s.stats.errors.Add(1)
			p.reply <- result{err: fmt.Errorf("%w: want %q, active %q", ErrModelVersion, p.req.Model, snap.Version)}
		default:
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		return
	}

	var gs []*ctgraph.Graph
	for _, p := range live {
		gs = append(gs, p.req.Graphs...)
	}
	s.stats.batches.Add(1)
	s.stats.batched.Add(uint64(len(gs)))

	w := parallel.Workers(s.cfg.Workers)
	for len(s.scratches) < w {
		s.scratches = append(s.scratches, pic.NewScratch())
	}
	scores := s.score(snap, gs, s.scratches)

	s.mu.Lock()
	s.served[snap.Version] += uint64(len(gs))
	s.mu.Unlock()

	off := 0
	for _, p := range live {
		n := len(p.req.Graphs)
		p.reply <- result{resp: &Response{
			Model:     snap.Version,
			Threshold: snap.Model.Threshold,
			Scores:    scores[off : off+n : off+n],
		}}
		off += n
	}
}

// serveOne is the synchronous path: score req inline against the current
// snapshot, on a set of scratch arenas borrowed from s.arenas, so a warm
// request grows no buffers and concurrent sync callers never share a set.
func (s *Server) serveOne(req *Request) (*Response, error) {
	snap := s.reg.Active()
	if snap == nil {
		s.stats.errors.Add(1)
		return nil, ErrNoModel
	}
	if !req.Deadline.IsZero() && time.Now().After(req.Deadline) {
		s.stats.expired.Add(1)
		return nil, ErrDeadline
	}
	if req.Model != "" && req.Model != snap.Version {
		s.stats.errors.Add(1)
		return nil, fmt.Errorf("%w: want %q, active %q", ErrModelVersion, req.Model, snap.Version)
	}
	s.stats.batches.Add(1)
	s.stats.batched.Add(uint64(len(req.Graphs)))
	set, _ := s.arenas.Get().(*[]*pic.Scratch)
	if set == nil {
		set = new([]*pic.Scratch)
	}
	for len(*set) < parallel.Workers(s.cfg.Workers) {
		*set = append(*set, pic.NewScratch())
	}
	scores := s.score(snap, req.Graphs, *set)
	s.arenas.Put(set)
	s.mu.Lock()
	s.served[snap.Version] += uint64(len(req.Graphs))
	s.mu.Unlock()
	return &Response{Model: snap.Version, Threshold: snap.Model.Threshold, Scores: scores}, nil
}

// score runs the inference fan-out for one batch: per-worker scratch
// arenas and per-graph BaseContexts from the LRU (graphs without a Base —
// or from another kernel era — predict without one; slow, never wrong).
// The output is bit-identical to pic.Model.PredictAllCtx over the same
// graphs at any worker count.
func (s *Server) score(snap *Snapshot, gs []*ctgraph.Graph, scratches []*pic.Scratch) [][]float64 {
	bcs := make([]*pic.BaseContext, len(gs))
	for i, g := range gs {
		if base := g.BaseOf(); base != nil {
			bcs[i] = s.cache.Get(snap, base)
		}
	}
	w := parallel.Workers(s.cfg.Workers)
	if w > len(scratches) {
		w = len(scratches)
	}
	out, err := parallel.MapWorkers(w, len(gs), func(worker, i int) ([]float64, error) {
		return snap.Model.PredictInto(nil, gs[i], snap.TC, scratches[worker], bcs[i]), nil
	})
	if err != nil {
		panic(err) // only a worker panic can land here; re-raise it
	}
	return out
}
