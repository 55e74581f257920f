package main

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"snowcat/internal/ctgraph"
	"snowcat/internal/explore"
	"snowcat/internal/predictor"
	"snowcat/internal/ski"
)

// span is one timed call into a layer. Names are "<module>.<step>"; the
// module prefix is the layer the time is charged to.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. Spans opened from pool workers name
// their parent explicitly, so concurrent recording needs only the lock.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans), Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timedExecutor times every execution as a "ski.exec" span.
type timedExecutor struct {
	explore.Executor
	tr     *tracer
	parent int
}

func (e timedExecutor) Execute(cti ski.CTI, sched ski.Schedule) (*ski.Result, error) {
	id := e.tr.begin("ski.exec", e.parent)
	defer e.tr.end(id)
	return e.Executor.Execute(cti, sched)
}

// timedPredictor times scoring ("pic.score") and per-CTI context builds
// ("pic.ctx"). It forwards BatchScorer and CTIScorer to the wrapped
// predictor, so the fast paths the untraced run takes stay on; the walk
// always scores through ScoreBatch, so Score is forwarded untimed.
type timedPredictor struct {
	predictor.Predictor
	tr     *tracer
	parent int // the span of the CTI being planned; set by the planner
	graphs atomic.Int64
}

var (
	_ predictor.BatchScorer = (*timedPredictor)(nil)
	_ predictor.CTIScorer   = (*timedPredictor)(nil)
)

func (p *timedPredictor) ScoreBatch(gs []*ctgraph.Graph, workers int) [][]float64 {
	id := p.tr.begin("pic.score", p.parent)
	defer p.tr.end(id)
	p.graphs.Add(int64(len(gs)))
	return predictor.ScoreAll(p.Predictor, gs, workers)
}

func (p *timedPredictor) BeginCTI(base *ctgraph.Base) {
	id := p.tr.begin("pic.ctx", p.parent)
	defer p.tr.end(id)
	predictor.BeginCTI(p.Predictor, base)
}

func (p *timedPredictor) EndCTI() { predictor.EndCTI(p.Predictor) }

// layerTimes aggregates spans: per name the summed duration and count,
// and per module the summed self time (duration minus the part of it its
// children cover).
type layerTimes struct {
	total map[string]float64 // seconds by span name
	count map[string]int
	max   map[string]float64 // longest span, seconds by span name
	self  map[string]float64 // seconds by module prefix ("ski", "campaign", ...)
}

func newLayerTimes() layerTimes {
	return layerTimes{total: map[string]float64{}, count: map[string]int{}, max: map[string]float64{}, self: map[string]float64{}}
}

// aggregate summarises the spans of one tracer.
func aggregate(spans []span) layerTimes {
	lt := newLayerTimes()
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		dur := float64(s.End-s.Start) / 1e9
		lt.total[s.Name] += dur
		lt.count[s.Name]++
		lt.max[s.Name] = max(lt.max[s.Name], dur)
		lt.self[module(s.Name)] += dur - float64(covered(children[s.ID]))/1e9
	}
	return lt
}

// add folds another trace's aggregate into lt. Span IDs are per tracer,
// so each trace is aggregated on its own and the results summed.
func (lt *layerTimes) add(o layerTimes) {
	for k, v := range o.total {
		lt.total[k] += v
	}
	for k, v := range o.count {
		lt.count[k] += v
	}
	for k, v := range o.max {
		lt.max[k] = max(lt.max[k], v)
	}
	for k, v := range o.self {
		lt.self[k] += v
	}
}

func module(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// covered returns the length of the union of the spans' intervals.
func covered(ss []span) int64 {
	if len(ss) == 0 {
		return 0
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var sum int64
	lo, hi := ss[0].Start, ss[0].End
	for _, s := range ss[1:] {
		if s.Start > hi {
			sum += hi - lo
			lo, hi = s.Start, s.End
		} else {
			hi = max(hi, s.End)
		}
	}
	return sum + hi - lo
}

// shares adds share.<module> for every reported layer: the module's self
// time over the self time of every span, so the shares of one traced run
// sum to 1 with the root spans' uncovered time.
func (lt layerTimes) shares(m map[string]float64) {
	all := 0.0
	for _, v := range lt.self {
		all += v
	}
	for _, mod := range []string{"campaign", "syz", "ski", "race", "ctgraph", "pic", "strategy", "stream", "trainer"} {
		m["share."+mod] = 0
		if all > 0 {
			m["share."+mod] = lt.self[mod] / all
		}
	}
}
