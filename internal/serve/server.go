package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"snowcat/internal/ctgraph"
	"snowcat/internal/kernel"
	"snowcat/internal/pic"
)

// Admission and serving errors.
var (
	// ErrOverloaded reports a request shed because the admission queue was
	// full — the backpressure signal callers retry against.
	ErrOverloaded = errors.New("serve: overloaded, admission queue full")
	// ErrDeadline reports a request whose deadline expired before it was
	// scored (load shedding under sustained overload).
	ErrDeadline = errors.New("serve: deadline expired before scoring")
	// ErrClosed reports a request against a closed (or closing) server.
	ErrClosed = errors.New("serve: server closed")
	// ErrModelVersion reports a request pinned to a version that was not
	// active when it scored.
	ErrModelVersion = errors.New("serve: requested model version is not active")
	// ErrBadRequest reports a structurally invalid request.
	ErrBadRequest = errors.New("serve: invalid request")
)

// Config tunes one Server. The zero value is usable: defaults are applied
// by New.
type Config struct {
	// Workers bounds the scoring pool of one request; <= 0 selects
	// GOMAXPROCS.
	Workers int
	// QueueDepth bounds the admission queue (in requests); <= 0 selects
	// 256. A full queue sheds non-waiting requests with ErrOverloaded.
	QueueDepth int
	// Deadline is the default per-request deadline applied at admission
	// when the request carries none; 0 disables default deadlines.
	Deadline time.Duration
	// CacheSize bounds, in CTIs, both the BaseContext LRU and the CTI
	// station; <= 0 selects 64.
	CacheSize int
	// Kernel, when non-nil, enables the CTI station: the server can then
	// score raw (CTI, schedules) requests, profiling the STIs and building
	// the base graph itself on a station miss. nil keeps the server
	// kernel-agnostic: it scores in-process graph requests only, and
	// /v1/predict_cti answers 501.
	Kernel *kernel.Kernel
	// Sync selects the deterministic synchronous mode: requests are
	// scored inline on the caller's goroutine with no queue or
	// dispatcher, so a single-client call sequence is exactly as
	// reproducible as calling pic.Model.PredictAllCtx directly. Queued
	// and sync predictions are bit-identical either way; Sync only
	// removes scheduling non-determinism.
	Sync bool
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 64
	}
	return c
}

// Request is one prediction request: score every graph with the active
// model. The request's graphs share the cached BaseContext of its first
// graph's base (Graph.BaseOf), so one request should carry one CTI's
// schedules, as ctgraph.Base.WithSchedule builds them.
type Request struct {
	Graphs []*ctgraph.Graph
	// Model, when non-empty, pins the request to a version: it fails with
	// ErrModelVersion instead of scoring against any other version.
	Model string
	// Deadline, when non-zero, sheds the request with ErrDeadline if it
	// has not started scoring by then.
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

// pending is one admitted request waiting for the dispatcher.
type pending struct {
	req   *Request
	reply chan result
}

type result struct {
	resp *Response
	err  error
}

// Server is the prediction service: a thin admission layer over
// pic.Model.PredictAllCtx. It holds the admission queue, the model
// registry, the BaseContext cache and the CTI station; the dispatcher
// scores queued requests one at a time, each with one PredictAllCtx call.
// Create with New, stop with Close (which drains admitted requests before
// returning).
type Server struct {
	cfg   Config
	reg   *Registry
	cache *BaseCache
	stats stats

	queue chan *pending
	quit  chan struct{} // closed by Close: stop accepting, start draining
	done  chan struct{} // closed when the dispatcher has drained and exited

	closed sync.Once

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
		s.station = NewCTIStation(s.cfg.Kernel, s.cfg.CacheSize)
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

// Swap activates version and invalidates the old snapshot's cached
// BaseContexts — the hot-swap entry point. In-flight requests finish on
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

// Predict scores one request, blocking until it is scored, the context is
// cancelled, or admission fails. Safe for any number of concurrent
// callers.
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

// dispatch is the dispatcher loop: take the next queued request, score it
// with serveOne and reply. On Close it drains whatever admission already
// accepted — graceful shutdown never drops an admitted request.
func (s *Server) dispatch() {
	defer close(s.done)
	for {
		var p *pending
		select {
		case p = <-s.queue:
		case <-s.quit:
			select {
			case p = <-s.queue:
			default:
				return
			}
		}
		resp, err := s.serveOne(p.req)
		p.reply <- result{resp: resp, err: err}
	}
}

// serveOne scores req against the current snapshot with one
// pic.Model.PredictAllCtx call, which borrows its arenas from pic's pool.
// It looks up one BaseContext, the one of the first graph's base: a graph
// of another base (or of none) computes its features in full — slow,
// never wrong.
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
	var bc *pic.BaseContext
	if base := req.Graphs[0].BaseOf(); base != nil {
		bc = s.cache.Get(snap, base)
	}
	scores := snap.Model.PredictAllCtx(req.Graphs, snap.TC, s.cfg.Workers, bc)
	s.mu.Lock()
	s.served[snap.Version] += uint64(len(req.Graphs))
	s.mu.Unlock()
	return &Response{Model: snap.Version, Threshold: snap.Model.Threshold, Scores: scores}, nil
}
