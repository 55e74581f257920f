package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"snowcat/internal/campaign"
	"snowcat/internal/ctgraph"
	"snowcat/internal/predictor"
	"snowcat/internal/serve"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
	"snowcat/internal/xrand"
)

// serve-cti drives /v1/predict_cti over loopback HTTP with open-loop
// arrivals: each phase draws its arrival times and request mix up front,
// and every request is timed from the instant it was due, so a stalled
// sender charges its wait to the requests behind it.

const (
	servePool     = 192 // distinct CTIs: three times the station and cache capacity (64)
	serveScheds   = 32  // schedules per request
	zipfExponent  = 0.5 // request mix skew over the pool
	nominalRPS    = 64  // about 30% of saturation on a 2-CPU host
	deadlineMS    = 500 // per-request server deadline
	achievedSlack = 0.97
	failedLatency = 1e6 // ms charged to a failed request, so it misses every limit
	ladderStart   = 2.0
	ladderGrowth  = 1.25
	ladderSteps   = 6
)

type serveFixture struct {
	fx     *modelFixture
	seed   uint64
	ctis   []ski.CTI
	profs  []campaign.Profiles
	scheds [][]ski.Schedule
	bodies [][]byte      // pre-encoded request per pool CTI
	cdf    []float64     // Zipf popularity over the pool
	want   [][][]float64 // reference scores per pool CTI

	// Per-call costs of the layers the server runs, calibrated in
	// reference() by calling the same functions from outside.
	profileS, baseS, ctxS, graphS, scoreS float64

	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
}

func setupServe(seed uint64) (fixture, error) {
	fx, err := trainModel()
	if err != nil {
		return nil, err
	}
	f := &serveFixture{fx: fx, seed: seed}
	runner := campaign.NewRunner(fx.k)
	jobs, err := runner.Stream(campaign.Config{Seed: seed, NumCTIs: servePool, Cost: campaign.PaperCosts()})
	if err != nil {
		return nil, err
	}
	if f.profs, err = runner.ProfileAll(jobs, workers); err != nil {
		return nil, err
	}
	for i, job := range jobs {
		sampler := ski.NewSampler(f.profs[i].PA, f.profs[i].PB, job.Seed)
		seen := make(map[string]bool)
		var scheds []ski.Schedule
		req := serve.PredictCTIRequest{DeadlineMS: deadlineMS, CTI: serve.EncodeCTI(job.CTI)}
		for len(scheds) < serveScheds {
			s, ok := sampler.NextUnique(seen, 50)
			if !ok {
				break
			}
			scheds = append(scheds, s)
			req.Schedules = append(req.Schedules, serve.EncodeSchedule(s))
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		f.ctis = append(f.ctis, job.CTI)
		f.scheds = append(f.scheds, scheds)
		f.bodies = append(f.bodies, body)
	}
	sum := 0.0
	for i := range f.ctis {
		sum += math.Pow(float64(i+1), -zipfExponent)
		f.cdf = append(f.cdf, sum)
	}
	for i := range f.cdf {
		f.cdf[i] /= sum
	}

	reg := serve.NewRegistry()
	if err := reg.Load("v1", fx.m, fx.tc); err != nil {
		return nil, err
	}
	f.srv = serve.New(reg, serve.Config{Kernel: fx.k, Workers: workers})
	if err := f.srv.Swap("v1"); err != nil {
		f.srv.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.srv.Close()
		return nil, err
	}
	f.url = "http://" + ln.Addr().String() + "/v1/predict_cti"
	f.hs = &http.Server{Handler: f.srv.Handler()}
	f.served = make(chan error, 1)
	go func() { f.served <- f.hs.Serve(ln) }()
	f.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true,
	}}
	return f, nil
}

func (f *serveFixture) config() map[string]any {
	cfg := modelConfig()
	cfg["pool_ctis"], cfg["schedules"], cfg["zipf"] = servePool, serveScheds, zipfExponent
	cfg["nominal_rps"], cfg["deadline_ms"] = nominalRPS, deadlineMS
	cfg["clients"], cfg["server_workers"] = workers, workers
	return cfg
}

func (f *serveFixture) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.hs.Shutdown(ctx); err != nil {
		f.hs.Close()
	}
	<-f.served
	f.srv.Close()
	f.client.CloseIdleConnections()
}

// reference computes every pool CTI's scores with pic.Model.PredictAllCtx.
// Beside it, it times from outside the calls the server makes per request:
// profiling, base build, BaseContext build, graph completion and fused
// scoring (through predictor.PIC, the path the server's scorer shares).
func (f *serveFixture) reference() error {
	m, tc := f.fx.m, f.fx.tc
	builder := campaign.NewRunner(f.fx.k).Builder
	pred := predictor.NewPIC(m, tc, "")
	var graphs int
	for i, cti := range f.ctis {
		t0 := time.Now()
		if _, err := syz.Run(f.fx.k, cti.A); err != nil {
			return err
		}
		if _, err := syz.Run(f.fx.k, cti.B); err != nil {
			return err
		}
		t1 := time.Now()
		base := builder.BuildBase(cti, f.profs[i].PA, f.profs[i].PB)
		t2 := time.Now()
		pred.BeginCTI(base)
		t3 := time.Now()
		gs := make([]*ctgraph.Graph, len(f.scheds[i]))
		for j, s := range f.scheds[i] {
			gs[j] = base.WithSchedule(s)
		}
		t4 := time.Now()
		pred.ScoreBatch(gs, 1)
		t5 := time.Now()
		pred.EndCTI()
		f.want = append(f.want, m.PredictAllCtx(gs, tc, 1, m.NewBaseContext(base, tc)))
		f.profileS += t1.Sub(t0).Seconds()
		f.baseS += t2.Sub(t1).Seconds()
		f.ctxS += t3.Sub(t2).Seconds()
		f.graphS += t4.Sub(t3).Seconds()
		f.scoreS += t5.Sub(t4).Seconds()
		graphs += len(gs)
	}
	n := float64(len(f.ctis))
	f.profileS, f.baseS, f.ctxS = f.profileS/n, f.baseS/n, f.ctxS/n
	f.graphS, f.scoreS = f.graphS/float64(graphs), f.scoreS/float64(graphs)
	return nil
}

// phase is one open-loop run at a fixed rate.
type phase struct {
	n, failed         int
	lat, lag, service []float64 // ms: from due, send lateness, send to reply
	wall              float64   // s: first due to last reply
	offered, achieved float64   // requests/s
}

// p99 estimates the 99th-percentile latency as the mean of the order
// statistics within half a percentile point of it: a single order
// statistic that deep in the tail swings by tens of percent between
// identical runs.
func (p phase) p99() float64 { return tailQuantile(p.lat, 0.99, 0.005) }

// keepsUp reports whether the phase ran without a failed request and
// without a growing backlog: the achieved rate stays within achievedSlack
// of the offered rate.
func (p phase) keepsUp() bool {
	return p.failed == 0 && p.achieved >= achievedSlack*p.offered
}

// run drives rate requests/s for d on at most workers connections and
// checks every reply against the reference. With tr non-nil each request
// is a "serve.request" span below root.
func (f *serveFixture) run(rate float64, d time.Duration, rng *xrand.RNG, tr *tracer, root int) phase {
	n := max(1, int(rate*d.Seconds()+0.5))
	due := make([]time.Duration, n)
	which := make([]int, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(d))
		which[i] = sort.SearchFloat64s(f.cdf, rng.Float64())
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })

	type rec struct {
		sent, done time.Time
		body       []byte
		err        error
	}
	recs := make([]rec, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				time.Sleep(time.Until(start.Add(due[i])))
				id := -1
				if tr != nil {
					id = tr.begin("serve.request", root)
				}
				r := rec{sent: time.Now()}
				r.body, r.err = f.post(f.bodies[which[i]])
				r.done = time.Now()
				if tr != nil {
					tr.end(id)
				}
				recs[i] = r
			}
		}()
	}
	wg.Wait()

	p := phase{n: n, offered: float64(n) / d.Seconds()}
	var last time.Time
	for i, r := range recs {
		at := start.Add(due[i])
		p.lag = append(p.lag, ms(r.sent.Sub(at)))
		if r.done.After(last) {
			last = r.done
		}
		if r.err != nil || !f.matches(which[i], r.body) {
			p.failed++
			p.lat = append(p.lat, failedLatency)
			continue
		}
		p.lat = append(p.lat, ms(r.done.Sub(at)))
		p.service = append(p.service, ms(r.done.Sub(r.sent)))
	}
	p.wall = last.Sub(start.Add(due[0])).Seconds()
	p.achieved = float64(n-p.failed) / last.Sub(start).Seconds()
	return p
}

func (f *serveFixture) post(body []byte) ([]byte, error) {
	resp, err := f.client.Post(f.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("http %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// matches reports whether a reply carries exactly the reference scores,
// bit for bit.
func (f *serveFixture) matches(cti int, body []byte) bool {
	var resp serve.PredictResponse
	if json.Unmarshal(body, &resp) != nil || len(resp.Scores) != len(f.want[cti]) {
		return false
	}
	for j, row := range resp.Scores {
		want := f.want[cti][j]
		if len(row) != len(want) {
			return false
		}
		for v := range row {
			if math.Float64bits(row[v]) != math.Float64bits(want[v]) {
				return false
			}
		}
	}
	return true
}

// phaseRNG derives the arrival and mix stream of one named phase.
func (f *serveFixture) phaseRNG(name string) *xrand.RNG {
	return xrand.New(f.seed ^ 0x5e77e).SplitNamed(name)
}

// warm fills the station and caches before anything is timed.
func (f *serveFixture) warm() {
	f.run(nominalRPS, time.Second, f.phaseRNG("warm"), nil, -1)
}

func (f *serveFixture) measure(d time.Duration) outcome {
	f.warm()
	var o outcome
	mw := startMemWindow()
	nom := f.run(nominalRPS, d, f.phaseRNG("nominal"), nil, -1)
	alloc := mw.finish()
	peak := mw.takePeak()
	o.attempted, o.failed = nom.n, nom.failed
	extra := map[string]float64{}

	// The ladder searches for the highest rate the server keeps up with.
	// From a nominal phase that keeps up it climbs, starting at ladderStart
	// times nominal and growing by ladderGrowth, until a step falls behind
	// twice in a row (one retry, so a lone stall of the host does not end
	// the climb); from one that falls behind it descends by ladderGrowth
	// until a step keeps up. max_rps is the rate the lowest step that fell
	// behind still achieved, clamped between the two steps' offered rates.
	var lo, hi phase
	if nom.keepsUp() {
		lo = nom
	} else {
		hi = nom
	}
	up := lo.n > 0
	rate, tries := float64(nominalRPS), 1
	if up {
		rate, tries = rate*ladderStart/ladderGrowth, 2
	}
	for i := 0; i < ladderSteps && (lo.n == 0 || hi.n == 0); i++ {
		if up {
			rate *= ladderGrowth
		} else {
			rate /= ladderGrowth
		}
		for try := 0; try < tries; try++ {
			p := f.run(rate, d/8, f.phaseRNG(fmt.Sprint("ladder", i, try)), nil, -1)
			o.attempted += p.n
			o.failed += p.failed
			extra[fmt.Sprintf("ladder.%03.0f_rps.p99_ms", rate)] = p.p99()
			extra[fmt.Sprintf("ladder.%03.0f_rps.achieved_rps", rate)] = p.achieved
			if p.keepsUp() {
				lo = p
				if up {
					hi = phase{}
				}
				break
			}
			hi = p
		}
	}
	best := lo.offered
	if hi.n > 0 {
		best = min(max(hi.achieved, lo.offered), hi.offered)
	}
	o.metrics = map[string]float64{
		"ctis_per_s":   nom.achieved,
		"p50_ms":       median(nom.lat),
		"p99_ms":       nom.p99(),
		"max_rps":      best,
		"alloc_mb":     alloc / float64(nom.n),
		"peak_heap_mb": peak,
	}
	for k, v := range extra {
		o.metrics[k] = v
	}
	return o
}

// measureTraced runs the nominal phase untraced and then traced with the
// same arrivals and mix. The server's internal layers carry no spans, so
// their busy time is estimated from its counters and the per-call costs
// calibrated in reference().
func (f *serveFixture) measureTraced(d time.Duration) outcome {
	f.warm()
	before := f.srv.Stats()
	half := d / 2
	plain := f.run(nominalRPS, half, f.phaseRNG("nominal"), nil, -1)
	tr := newTracer()
	root := tr.begin("unit", -1)
	traced := f.run(nominalRPS, half, f.phaseRNG("nominal"), tr, root)
	tr.end(root)
	after := f.srv.Stats()

	o := outcome{attempted: plain.n + traced.n, failed: plain.failed + traced.failed, spans: tr.spans}
	m := layerMetrics(aggregate(tr.spans), tally{}, 1)
	// Counters cover both phases; busy estimates are per phase.
	delta := func(a, b uint64) float64 { return float64(a-b) / 2 }
	frac := func(hits, misses float64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return hits / (hits + misses)
	}
	stMiss := delta(after.StationMisses, before.StationMisses)
	stHit := delta(after.StationHits, before.StationHits)
	cMiss := delta(after.CacheMisses, before.CacheMisses)
	cHit := delta(after.CacheHits, before.CacheHits)
	graphs := delta(after.BatchedGraphs, before.BatchedGraphs)
	m["syz.stis"] = 2 * stMiss
	m["syz.profile_busy_s"] = stMiss * f.profileS
	m["ctgraph.bases"] = stMiss
	m["ctgraph.base_busy_s"] = stMiss * f.baseS
	m["ctgraph.graphs"] = graphs
	m["ctgraph.graph_busy_s"] = graphs * f.graphS
	m["pic.ctx_busy_s"] = cMiss * f.ctxS
	m["pic.graphs_scored"] = graphs
	m["pic.score_busy_s"] = graphs * f.scoreS
	m["pic.us_per_graph"] = f.scoreS * 1e6
	m["serve.svr_p50_ms"] = after.LatencyP50US / 1e3
	m["serve.svr_p99_ms"] = after.LatencyP99US / 1e3
	m["serve.wire_ms"] = median(traced.service) - after.LatencyP50US/1e3
	m["serve.mean_batch"] = after.MeanBatch
	m["serve.station_hit_frac"] = frac(stHit, stMiss)
	m["serve.ctx_cache_hit_frac"] = frac(cHit, cMiss)
	m["serve.shed"] = delta(after.Shed, before.Shed)
	m["serve.expired"] = delta(after.Expired, before.Expired)
	m["load.gen_lag_ms"] = median(plain.lag)
	m["load.offered_rps"] = plain.offered
	m["load.achieved_rps"] = plain.achieved
	m["trace.overhead_frac"] = traced.wall/plain.wall - 1
	o.metrics = m
	return o
}
