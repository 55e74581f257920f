package main

import (
	"crypto/sha256"
	"encoding/binary"
	"reflect"
	"time"

	"snowcat/internal/campaign"
	"snowcat/internal/ctgraph"
	"snowcat/internal/dataset"
	"snowcat/internal/explore"
	"snowcat/internal/kernel"
	"snowcat/internal/mlpct"
	"snowcat/internal/parallel"
	"snowcat/internal/predictor"
	"snowcat/internal/race"
	"snowcat/internal/serve"
	"snowcat/internal/ski"
	"snowcat/internal/strategy"
	"snowcat/internal/stream"
	"snowcat/internal/syz"
	"snowcat/internal/trainer"
	"snowcat/internal/xrand"
)

// Batch workloads are timed in whole units: one campaign, or one closed
// learn loop, over a fixed number of CTIs. A single CTI stream is too
// small a sample of the input space (the cost of a CTI varies several-fold
// with its programs), so a run draws a set of streams from --seed and
// measures whole passes over all of them.

const (
	pctCTIs   = 25 // campaign-pct unit: 25 CTIs x 40 executions
	pctBudget = 40
	mlCTIs    = 20 // campaign-mlpct unit
	learnCTIs = 30 // learn-retrain unit
)

// batchOp is one workload's unit of work over a stream seed.
type batchOp interface {
	ctis() int
	// run executes one unit untraced, through the package entry point,
	// on par workers.
	run(seed uint64, par int) (any, error)
	// runTraced rebuilds the unit from its layers' public pieces, timing
	// each call as a span below root and counting work into tl.
	runTraced(seed uint64, tr *tracer, root int, tl *tally) (any, error)
}

// tally counts work the spans cannot: outcomes and ratios' numerators.
type tally struct {
	graphsScored, walked, accepted, inferences int64
	races, examples, deduped, rounds, steps    int64
}

type batchFixture struct {
	op      batchOp
	cfg     map[string]any
	streams []uint64 // stream seeds, drawn from --seed
	refs    []any    // per stream
}

func newBatchFixture(op batchOp, seed uint64, streams int, cfg map[string]any) *batchFixture {
	rng := xrand.New(seed)
	f := &batchFixture{op: op, cfg: cfg}
	for i := 0; i < streams; i++ {
		f.streams = append(f.streams, rng.Uint64())
	}
	cfg["ctis"], cfg["streams"], cfg["workers"] = op.ctis(), streams, workers
	return f
}

func (f *batchFixture) config() map[string]any { return f.cfg }
func (f *batchFixture) close()                 {}

// reference runs every stream's unit on a single worker: every measured
// unit, at any width and traced or not, must equal it.
func (f *batchFixture) reference() error {
	for _, s := range f.streams {
		out, err := f.op.run(s, 1)
		if err != nil {
			return err
		}
		f.refs = append(f.refs, out)
	}
	return nil
}

// check counts one unit of stream i into o, as failed unless it ran and
// equals the reference.
func (f *batchFixture) check(o *outcome, i int, out any, err error) {
	o.attempted++
	if err != nil || !reflect.DeepEqual(out, f.refs[i]) {
		o.failed++
	}
}

// measure runs whole passes over the streams until d has passed. Each
// stream is timed by its median unit, which keeps a transient stall of
// the host out of the throughput; the latency percentiles are over whole
// passes, which all do the same work.
func (f *batchFixture) measure(d time.Duration) outcome {
	var o outcome
	walls := make([][]float64, len(f.streams))
	var passes, peaks []float64
	mw := startMemWindow()
	deadline := time.Now().Add(d)
	for len(passes) == 0 || time.Now().Before(deadline) {
		pass := time.Now()
		for i, s := range f.streams {
			t0 := time.Now()
			out, err := f.op.run(s, workers)
			walls[i] = append(walls[i], time.Since(t0).Seconds())
			peaks = append(peaks, mw.takePeak())
			f.check(&o, i, out, err)
		}
		passes = append(passes, time.Since(pass).Seconds())
	}
	alloc := mw.finish()
	sumMedian, sumMin := 0.0, 0.0
	for _, w := range walls {
		sumMedian += median(w)
		sumMin += minOf(w)
	}
	n := float64(f.op.ctis() * len(f.streams))
	o.metrics = map[string]float64{
		"ctis_per_s":   n / sumMedian,
		"p50_ms":       median(passes) * 1e3,
		"p99_ms":       quantile(passes, 0.99) * 1e3,
		"max_rps":      n / sumMin,
		"alloc_mb":     alloc / float64(o.attempted),
		"peak_heap_mb": median(peaks),
	}
	return o
}

// measureTraced runs each stream untraced and traced, in whole passes,
// until d has passed. Odd passes run the traced unit first, so neither
// side always runs on the other's warm caches.
func (f *batchFixture) measureTraced(d time.Duration) outcome {
	var o outcome
	var plain, traced float64
	lt := newLayerTimes()
	var tl tally
	units := 0
	deadline := time.Now().Add(d)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for i, s := range f.streams {
			for side := 0; side < 2; side++ {
				t0 := time.Now()
				if (side+pass)%2 == 0 {
					out, err := f.op.run(s, workers)
					plain += time.Since(t0).Seconds()
					f.check(&o, i, out, err)
					continue
				}
				tr := newTracer()
				root := tr.begin("unit", -1)
				out, err := f.op.runTraced(s, tr, root, &tl)
				tr.end(root)
				traced += time.Since(t0).Seconds()
				f.check(&o, i, out, err)
				lt.add(aggregate(tr.spans))
				if o.spans == nil {
					o.spans = tr.spans
				}
				units++
			}
		}
	}
	o.metrics = layerMetrics(lt, tl, float64(units))
	o.metrics["trace.overhead_frac"] = traced/plain - 1
	return o
}

// layerMetrics turns the traced units' spans and tallies into per-unit
// layer metrics. Every per-layer metric is present; a layer the workload
// never calls reads 0.
func layerMetrics(lt layerTimes, tl tally, units float64) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, n := range perLayer {
		m[n] = 0
	}
	per := func(x float64) float64 { return x / units }
	busy := func(name string) float64 { return per(lt.total[name]) }
	count := func(name string) float64 { return per(float64(lt.count[name])) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	m["campaign.profile_s"] = busy("campaign.profile")
	m["campaign.plan_s"] = busy("campaign.plan")
	m["campaign.execute_s"] = busy("campaign.execute")
	m["campaign.fold_s"] = busy("campaign.fold")
	m["campaign.exec_util"] = ratio(lt.total["ski.exec"]+lt.total["race.detect"], lt.total["campaign.execute"]*float64(workers))
	m["syz.profile_busy_s"] = busy("syz.profile")
	m["syz.stis"] = count("syz.profile")
	m["ski.exec_busy_s"] = busy("ski.exec")
	m["ski.execs"] = count("ski.exec")
	m["ski.us_per_exec"] = ratio(lt.total["ski.exec"]*1e6, float64(lt.count["ski.exec"]))
	m["race.detect_busy_s"] = busy("race.detect")
	m["race.races"] = per(float64(tl.races))
	m["ctgraph.base_busy_s"] = busy("ctgraph.base")
	m["ctgraph.bases"] = count("ctgraph.base")
	m["ctgraph.graph_busy_s"] = busy("ctgraph.graph")
	m["ctgraph.graphs"] = count("ctgraph.graph")
	m["pic.ctx_busy_s"] = busy("pic.ctx")
	m["pic.score_busy_s"] = busy("pic.score")
	m["pic.graphs_scored"] = per(float64(tl.graphsScored))
	m["pic.us_per_graph"] = ratio(lt.total["pic.score"]*1e6, float64(tl.graphsScored))
	m["explore.scored_useful_frac"] = ratio(float64(tl.inferences), float64(tl.graphsScored))
	m["strategy.select_busy_s"] = busy("strategy.select")
	m["strategy.accept_frac"] = ratio(float64(tl.accepted), float64(tl.walked))
	m["stream.label_busy_s"] = busy("stream.label")
	m["stream.examples"] = per(float64(tl.examples))
	m["stream.deduped"] = per(float64(tl.deduped))
	m["trainer.round_busy_s"] = busy("trainer.round")
	m["trainer.rounds"] = per(float64(tl.rounds))
	m["trainer.round_max_ms"] = lt.max["trainer.round"] * 1e3
	m["pic.train_steps"] = per(float64(tl.steps))
	m["trace.other_s"] = per(lt.self["unit"])
	lt.shares(m)
	return m
}

// campaignOp is one campaign.Runner.Run over a fixed CTI stream.
type campaignOp struct {
	runner *campaign.Runner
	n      int
	// config returns a fresh configuration (fresh predictor and strategy
	// state) for a unit of the stream seed on par workers.
	config func(seed uint64, par int) (campaign.Config, error)
}

func (c *campaignOp) ctis() int { return c.n }

func (c *campaignOp) run(seed uint64, par int) (any, error) {
	cfg, err := c.config(seed, par)
	if err != nil {
		return nil, err
	}
	return c.runner.Run(cfg)
}

// runTraced is Runner.Run phase by phase, with each phase's inner calls
// timed.
func (c *campaignOp) runTraced(seed uint64, tr *tracer, root int, tl *tally) (any, error) {
	cfg, err := c.config(seed, workers)
	if err != nil {
		return nil, err
	}
	var pred *timedPredictor
	if cfg.Pred != nil {
		pred = &timedPredictor{Predictor: cfg.Pred, tr: tr}
		cfg.Pred = pred
	}
	id := tr.begin("campaign.stream", root)
	jobs, err := c.runner.Stream(cfg)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	exp := c.runner.Explorer(cfg)
	profs, err := profileAll(tr, root, c.runner.K, jobs, cfg.Parallel)
	if err != nil {
		return nil, err
	}

	id = tr.begin("campaign.plan", root)
	var plans []*mlpct.Plan
	if pred == nil {
		plans, err = c.runner.PlanAll(cfg, exp, jobs, profs)
	} else {
		for i := range jobs {
			plans = append(plans, planMLPCT(tr, id, exp, jobs[i], profs[i], pred, cfg.Strat, tl))
		}
	}
	tr.end(id)
	if err != nil {
		return nil, err
	}

	execs, err := executeAll(tr, root, c.runner.K, cfg, plans)
	if err != nil {
		return nil, err
	}
	id = tr.begin("campaign.fold", root)
	fold := campaign.NewFold(cfg)
	for i, p := range plans {
		fold.SettleCTI(cfg, p, profs[i], execs[i])
	}
	hist := fold.Finish()
	tr.end(id)
	tl.races += int64(hist.FinalRaces)
	if pred != nil {
		tl.graphsScored += pred.graphs.Load()
	}
	return hist, nil
}

// profileAll is Runner.ProfileAll with every STI profile timed.
func profileAll(tr *tracer, root int, k *kernel.Kernel, jobs []campaign.CTIJob, par int) ([]campaign.Profiles, error) {
	id := tr.begin("campaign.profile", root)
	defer tr.end(id)
	prof := func(sti *syz.STI) (*syz.Profile, error) {
		s := tr.begin("syz.profile", id)
		defer tr.end(s)
		return syz.Run(k, sti)
	}
	return parallel.Map(parallel.Workers(par), len(jobs), func(i int) (campaign.Profiles, error) {
		pa, err := prof(jobs[i].CTI.A)
		if err != nil {
			return campaign.Profiles{}, err
		}
		pb, err := prof(jobs[i].CTI.B)
		if err != nil {
			return campaign.Profiles{}, err
		}
		return campaign.Profiles{PA: pa, PB: pb}, nil
	})
}

// planMLPCT is mlpct.Explorer.PlanMLPCT as an explore.Walk whose stages
// are timed closures over the graph builder, the predictor and the
// strategy.
func planMLPCT(tr *tracer, parent int, exp *mlpct.Explorer, job campaign.CTIJob, pr campaign.Profiles,
	pred *timedPredictor, strat strategy.Strategy, tl *tally) *mlpct.Plan {

	cti := job.CTI
	plan := &mlpct.Plan{CTI: cti}
	id := tr.begin("ctgraph.base", parent)
	base := exp.Builder.BuildBase(cti, pr.PA, pr.PB)
	tr.end(id)
	pred.parent = parent
	predictor.BeginCTI(pred, base)
	defer predictor.EndCTI(pred)
	th := pred.Threshold()
	led := explore.NewLedger(explore.CostModel{})
	w := &explore.Walk{
		Source: explore.SampleUnique(cti, ski.NewSampler(pr.PA, pr.PB, job.Seed), 50),
		Build: func(c explore.Candidate) *ctgraph.Graph {
			id := tr.begin("ctgraph.graph", parent)
			defer tr.end(id)
			return base.WithSchedule(c.Sched)
		},
		Score: pred,
		Accept: func(c explore.Candidate, g *ctgraph.Graph, scores []float64) bool {
			id := tr.begin("strategy.select", parent)
			defer tr.end(id)
			tl.walked++
			ok := strategy.Select(strat, g, strategy.FromScores(scores, th))
			if ok {
				tl.accepted++
			}
			return ok
		},
		Budget:  explore.Budget{ExecBudget: exp.Opts.ExecBudget, InferenceCap: exp.Opts.InferenceCap},
		Batch:   exp.Opts.Batch,
		Workers: exp.Opts.Parallel,
		Ledger:  led,
		Hooks:   exp.Hooks,
	}
	for _, c := range w.Run() {
		plan.Scheds = append(plan.Scheds, c.Sched)
	}
	plan.Proposed, plan.Inferences = led.Proposed(), led.Inferences()
	tl.inferences += int64(plan.Inferences)
	return plan
}

// executeAll is Runner.ExecuteAll through a timed executor, with race
// detection timed beside it.
func executeAll(tr *tracer, root int, k *kernel.Kernel, c campaign.Config, plans []*mlpct.Plan) ([][]campaign.ExecOutcome, error) {
	id := tr.begin("campaign.execute", root)
	defer tr.end(id)
	base := c.Exec
	if base == nil {
		base = explore.DefaultExecutor(k)
	}
	ex := timedExecutor{Executor: base, tr: tr, parent: id}
	type execJob struct{ cti, sched int }
	var flat []execJob
	for i, p := range plans {
		for j := range p.Scheds {
			flat = append(flat, execJob{cti: i, sched: j})
		}
	}
	execs, err := parallel.Map(parallel.Workers(c.Parallel), len(flat), func(n int) (campaign.ExecOutcome, error) {
		j := flat[n]
		res, err := ex.Execute(plans[j.cti].CTI, plans[j.cti].Scheds[j.sched])
		if err != nil {
			return campaign.ExecOutcome{}, err
		}
		r := tr.begin("race.detect", id)
		races := race.Detect(res)
		tr.end(r)
		return campaign.ExecOutcome{Res: res, Races: races}, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]campaign.ExecOutcome, len(plans))
	n := 0
	for i, p := range plans {
		out[i] = execs[n : n+len(p.Scheds) : n+len(p.Scheds)]
		n += len(p.Scheds)
	}
	return out, nil
}

// Streams per run, sized so a run covers several hundred CTIs.
const (
	pctStreams   = 16
	mlStreams    = 12
	learnStreams = 12
)

func setupCampaignPCT(seed uint64) (fixture, error) {
	runner := campaign.NewRunner(kernel.Generate(pctKernelConfig()))
	opts := mlpct.Options{ExecBudget: pctBudget, Batch: 32}
	op := &campaignOp{runner: runner, n: pctCTIs, config: func(seed uint64, par int) (campaign.Config, error) {
		return campaign.Config{
			Name: "campaign-pct", Seed: seed, NumCTIs: pctCTIs, Opts: opts,
			Cost: campaign.PaperCosts(), Parallel: par,
		}, nil
	}}
	return newBatchFixture(op, seed, pctStreams, map[string]any{"kernel": pctKernelConfig(), "opts": opts}), nil
}

func setupCampaignMLPCT(seed uint64) (fixture, error) {
	fx, err := trainModel()
	if err != nil {
		return nil, err
	}
	op := &campaignOp{runner: campaign.NewRunner(fx.k), n: mlCTIs, config: func(seed uint64, par int) (campaign.Config, error) {
		st, err := strategy.New("s1")
		return campaign.Config{
			Name: "campaign-mlpct", Seed: seed, NumCTIs: mlCTIs, Opts: mlOptions(),
			Cost: campaign.PaperCosts(), Pred: predictor.NewPIC(fx.m, fx.tc, "PIC"), Strat: st,
			Parallel: par,
		}, err
	}}
	cfg := modelConfig()
	cfg["strategy"] = "s1"
	return newBatchFixture(op, seed, mlStreams, cfg), nil
}

// learnOp is one trainer.Learn closed loop.
type learnOp struct{ fx *modelFixture }

// learnTrain is the retrain schedule: a round every 60 simulated seconds.
func learnTrain() trainer.Config { return trainer.Config{RetrainEvery: 60, MinNew: 8, Tune: true} }

func (l *learnOp) ctis() int { return learnCTIs }

func (l *learnOp) config(seed uint64, par int) (trainer.LoopConfig, error) {
	st, err := strategy.New("s1")
	return trainer.LoopConfig{
		Name: "learn-retrain", Seed: seed, NumCTIs: learnCTIs,
		Opts: mlOptions(), Cost: campaign.PaperCosts(), Strat: st,
		Parallel: par, Train: learnTrain(),
	}, err
}

func (l *learnOp) run(seed uint64, par int) (any, error) {
	cfg, err := l.config(seed, par)
	if err != nil {
		return nil, err
	}
	res, err := trainer.Learn(l.fx.k, l.fx.m, l.fx.tc, cfg)
	if err != nil {
		return nil, err
	}
	return summarize(res), nil
}

// learnSummary is the comparable part of a trainer.LoopResult: the
// dataset is reduced to a digest of its labels.
type learnSummary struct {
	Hist            *campaign.History
	Rounds          []trainer.RoundStats
	Versions        []string
	ExecsToFirstBug int
	Examples        int
	Deduped         int
	Labels          [sha256.Size]byte
}

func summarize(res *trainer.LoopResult) learnSummary {
	return learnSummary{
		Hist: res.Hist, Rounds: res.Rounds, Versions: res.Versions,
		ExecsToFirstBug: res.ExecsToFirstBug, Examples: res.Examples, Deduped: res.Deduped,
		Labels: labelDigest(res.Dataset),
	}
}

// labelDigest hashes every example's CTI, graph size and labels in order.
func labelDigest(ds *dataset.Dataset) [sha256.Size]byte {
	h := sha256.New()
	word := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	bits := func(bs []bool) {
		word(int64(len(bs)))
		for _, b := range bs {
			if b {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
	}
	for _, g := range ds.Groups {
		word(g.CTI.ID)
		for _, ex := range g.Examples {
			word(int64(len(ex.G.Vertices)))
			bits(ex.Y)
			bits(ex.YFlow)
		}
	}
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// runTraced is trainer.Learn rebuilt step by step in the order Learn runs
// them: serve/bus/trainer set-up, profiling, then per CTI plan, execute,
// fold (which streams outcomes to the bus), and a retrain round when due.
// A due round's stream flush is timed apart from the retrain itself.
func (l *learnOp) runTraced(seed uint64, tr *tracer, root int, tl *tally) (any, error) {
	cfg, err := l.config(seed, workers)
	if err != nil {
		return nil, err
	}
	k, m0, tc := l.fx.k, l.fx.m, l.fx.tc

	id := tr.begin("learn.setup", root)
	reg := serve.NewRegistry()
	if err := reg.Load("v1", m0, tc); err != nil {
		return nil, err
	}
	srv := serve.New(reg, serve.Config{Sync: true, Workers: cfg.Parallel})
	defer srv.Close()
	if err := srv.Swap("v1"); err != nil {
		return nil, err
	}
	bus := stream.New(dataset.NewCollector(k, cfg.Seed), stream.Config{Buffer: cfg.Buffer, Workers: cfg.Parallel})
	trn, err := trainer.New(m0, tc, bus, trainer.PublishTo(srv), cfg.Train)
	if err != nil {
		return nil, err
	}
	res := &trainer.LoopResult{ExecsToFirstBug: -1}
	execs := 0
	hooks := bus.Hooks(&explore.Hooks{ScheduleExecuted: func(c explore.Candidate, r *ski.Result) {
		execs++
		if res.ExecsToFirstBug < 0 && len(r.BugsHit) > 0 {
			res.ExecsToFirstBug = execs
		}
	}})
	foldSpan := -1
	publish := hooks.ScheduleExecuted
	hooks.ScheduleExecuted = func(c explore.Candidate, r *ski.Result) {
		s := tr.begin("stream.label", foldSpan)
		defer tr.end(s)
		publish(c, r)
	}
	pred := &timedPredictor{Predictor: serve.NewClient(srv, ""), tr: tr}
	c := campaign.Config{
		Name: cfg.Name, Seed: cfg.Seed, NumCTIs: cfg.NumCTIs,
		Opts: cfg.Opts, Cost: cfg.Cost, Pred: pred, Strat: cfg.Strat,
		Parallel: cfg.Parallel, Hooks: hooks,
	}
	runner := campaign.NewRunner(k)
	jobs, err := runner.Stream(c)
	tr.end(id)
	if err != nil {
		return nil, err
	}

	profs, err := profileAll(tr, root, k, jobs, c.Parallel)
	if err != nil {
		return nil, err
	}
	exp := runner.Explorer(c)
	fold := campaign.NewFold(c)
	for i := range jobs {
		id = tr.begin("campaign.plan", root)
		plan := planMLPCT(tr, id, exp, jobs[i], profs[i], pred, c.Strat, tl)
		tr.end(id)
		outs, err := executeAll(tr, root, k, c, []*mlpct.Plan{plan})
		if err != nil {
			return nil, err
		}
		foldSpan = tr.begin("campaign.fold", root)
		fold.SettleCTI(c, plan, profs[i], outs[0])
		tr.end(foldSpan)
		if !trn.Due(fold.Seconds()) {
			continue
		}
		id = tr.begin("stream.label", root)
		err = bus.Flush()
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin("trainer.round", root)
		round, err := trn.MaybeRound(fold.Seconds())
		tr.end(id)
		if err != nil {
			return nil, err
		}
		if round != nil {
			strategy.NotifyVersion(c.Strat, round.Version)
		}
	}
	res.Hist = fold.Finish()
	id = tr.begin("stream.label", root)
	ds, err := bus.Close()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	stats := bus.Stats()
	res.Dataset, res.Examples, res.Deduped = ds, stats.Ingested, stats.Deduped
	res.Rounds = trn.Rounds()
	res.Versions = append([]string{"v1"}, trn.Versions()...)

	tl.races += int64(res.Hist.FinalRaces)
	tl.graphsScored += pred.graphs.Load()
	tl.examples += int64(res.Examples)
	tl.deduped += int64(res.Deduped)
	tl.rounds += int64(len(res.Rounds))
	tl.steps += int64(trn.Steps())
	return summarize(res), nil
}

func setupLearn(seed uint64) (fixture, error) {
	fx, err := trainModel()
	if err != nil {
		return nil, err
	}
	cfg := modelConfig()
	cfg["strategy"], cfg["train"] = "s1", learnTrain()
	return newBatchFixture(&learnOp{fx: fx}, seed, learnStreams, cfg), nil
}
