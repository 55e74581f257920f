package serve

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"snowcat/internal/cfg"
	"snowcat/internal/ctgraph"
	"snowcat/internal/kernel"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
)

// ErrNoStation reports a CTI-level request against a server configured
// without a kernel (Config.Kernel nil): such a server can only score
// in-process graph requests, not raw (CTI, schedule) work.
var ErrNoStation = fmt.Errorf("%w: server has no CTI station (Config.Kernel unset)", ErrBadRequest)

// stationEntry is the server-side state of one CTI: the schedule-
// independent base graph built from its STI profiles. Building it is the
// expensive part of scoring a CTI the server has never seen — two
// sequential profile runs plus the base-graph build cost several
// predictions' worth of time — which is why the station caches it: a
// server whose working set fits the station pays this once per CTI, not
// once per request.
type stationEntry struct {
	a, b int64 // STI IDs, to catch CTI-ID reuse with different programs
	base *ctgraph.Base
}

// CTIStation is a bounded LRU of per-CTI server state, keyed by CTI ID.
// It is the entry point of /v1/predict_cti: clients send raw
// (CTI, schedules) requests and the station profiles the STIs and builds
// the base graph on a miss, so repeat requests for a CTI hit. The derived
// pic.BaseContexts live in the server's BaseCache, keyed by the base
// pointer the station keeps stable.
//
// Like BaseCache, misses build under the lock: concurrent misses for one
// CTI deduplicate, and the second caller hits.
type CTIStation struct {
	k       *kernel.Kernel
	builder *ctgraph.Builder

	mu        sync.Mutex
	capacity  int
	lru       *list.List // of *stationNode, front = most recent
	idx       map[int64]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

type stationNode struct {
	id    int64
	entry *stationEntry
}

// NewCTIStation returns an empty station over kernel k holding at most
// capacity CTIs (capacity <= 0 selects 64).
func NewCTIStation(k *kernel.Kernel, capacity int) *CTIStation {
	if capacity <= 0 {
		capacity = 64
	}
	return &CTIStation{
		k:        k,
		builder:  ctgraph.NewBuilder(k, cfg.Build(k)),
		capacity: capacity,
		lru:      list.New(),
		idx:      make(map[int64]*list.Element),
	}
}

// Entry returns the station state of cti, profiling its STIs and building
// the base graph on a miss. An entry whose cached STI IDs do not match
// the request is rebuilt (CTI-ID reuse across kernel eras).
func (st *CTIStation) Entry(cti ski.CTI) (*stationEntry, error) {
	if cti.A == nil || cti.B == nil {
		return nil, fmt.Errorf("%w: CTI %d has nil STIs", ErrBadRequest, cti.ID)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if el, ok := st.idx[cti.ID]; ok {
		e := el.Value.(*stationNode).entry
		if e.a == cti.A.ID && e.b == cti.B.ID {
			st.hits++
			st.lru.MoveToFront(el)
			return e, nil
		}
		// Same ID, different programs: drop the stale entry and rebuild.
		st.lru.Remove(el)
		delete(st.idx, cti.ID)
		st.evictions++
	}
	st.misses++
	pa, err := syz.Run(st.k, cti.A)
	if err != nil {
		return nil, fmt.Errorf("serve: station profile of sti%d: %w", cti.A.ID, err)
	}
	pb, err := syz.Run(st.k, cti.B)
	if err != nil {
		return nil, fmt.Errorf("serve: station profile of sti%d: %w", cti.B.ID, err)
	}
	e := &stationEntry{a: cti.A.ID, b: cti.B.ID, base: st.builder.BuildBase(cti, pa, pb)}
	st.idx[cti.ID] = st.lru.PushFront(&stationNode{id: cti.ID, entry: e})
	for st.lru.Len() > st.capacity {
		oldest := st.lru.Back()
		st.lru.Remove(oldest)
		delete(st.idx, oldest.Value.(*stationNode).id)
		st.evictions++
	}
	return e, nil
}

// Counters returns the cumulative hit/miss/eviction counts.
func (st *CTIStation) Counters() (hits, misses, evictions uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.hits, st.misses, st.evictions
}

// PredictCTI scores the given schedules of one CTI: the request shape of
// /v1/predict_cti, where the server owns all per-CTI state. On a station
// miss the server profiles the STIs and builds the base graph itself; the
// derived graphs then ride the normal admission path (and the BaseContext
// LRU) exactly like in-process graph requests. opts carries the admission
// options — Model, Deadline and Wait (see Request); its Graphs are
// ignored.
func (s *Server) PredictCTI(ctx context.Context, cti ski.CTI, scheds []ski.Schedule, opts Request) (*Response, error) {
	if s.station == nil {
		return nil, ErrNoStation
	}
	if len(scheds) == 0 {
		return nil, fmt.Errorf("%w: no schedules", ErrBadRequest)
	}
	e, err := s.station.Entry(cti)
	if err != nil {
		s.stats.errors.Add(1)
		return nil, err
	}
	opts.Graphs = make([]*ctgraph.Graph, len(scheds))
	for i, sched := range scheds {
		opts.Graphs[i] = e.base.WithSchedule(sched)
	}
	return s.Predict(ctx, &opts)
}
