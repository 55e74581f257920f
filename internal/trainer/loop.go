package trainer

import (
	"fmt"

	"snowcat/internal/campaign"
	"snowcat/internal/dataset"
	"snowcat/internal/explore"
	"snowcat/internal/kernel"
	"snowcat/internal/mlpct"
	"snowcat/internal/pic"
	"snowcat/internal/serve"
	"snowcat/internal/ski"
	"snowcat/internal/strategy"
	"snowcat/internal/stream"
)

// LoopConfig describes one closed-loop learning campaign: an MLPCT
// campaign whose predictor is a served model, whose executed outcomes
// stream back as labelled examples, and whose model retrains and
// hot-swaps on the simulated clock mid-campaign.
type LoopConfig struct {
	Name    string
	Seed    uint64
	NumCTIs int
	Opts    mlpct.Options
	Cost    campaign.CostModel
	Strat   strategy.Strategy
	// Exec runs the executions; nil selects explore.DefaultExecutor.
	Exec explore.Executor
	// Parallel bounds the worker pools (profiling, scoring, execution,
	// stream labelling); the result is identical at every width.
	Parallel int
	// Resilience, when non-nil, runs executions through the fault layer.
	// Replayed attempts reach the stream once (accumulator dedupe).
	Resilience *explore.Resilience
	// Train schedules the retraining rounds; RetrainEvery <= 0 runs the
	// frozen-model baseline (the campaign serves v1 throughout).
	Train Config
	// Buffer sizes the outcome bus (see stream.Config).
	Buffer int
	// Hooks optionally observes the pipeline; the loop chains its own
	// bug-latency and streaming hooks in front of it.
	Hooks *explore.Hooks
}

// LoopResult is one closed-loop campaign's outcome.
type LoopResult struct {
	Hist     *campaign.History
	Rounds   []RoundStats // retrain rounds that published (empty when frozen)
	Versions []string     // served versions in activation order, "v1" first
	// ExecsToFirstBug counts dynamic executions folded before the first
	// planted bug fired; -1 if the campaign never hit one. This is the
	// frozen-versus-retrained benchmark metric.
	ExecsToFirstBug int
	Examples        int // labelled examples folded into the dataset
	Deduped         int // replayed executions rejected by the accumulator
	Dataset         *dataset.Dataset
}

// Learn runs one closed-loop campaign over kernel k, warm-starting from
// m0. The campaign's predictor is a deterministic Sync serve.Server whose
// registry starts at v1 = m0; the bus taps every executed schedule from
// the canonical fold; the trainer retrains on the stream and hot-swaps
// new versions between CTIs, on the simulated clock. The loop is the
// sequential composition of the campaign phases, so at Train.RetrainEvery
// <= 0 it reproduces the frozen MLPCT campaign's history exactly.
func Learn(k *kernel.Kernel, m0 *pic.Model, tc *pic.TokenCache, cfg LoopConfig) (*LoopResult, error) {
	// Serving side: v1 is m0 itself — the trainer clones before stepping,
	// so the frozen snapshot stays pristine.
	reg := serve.NewRegistry()
	if err := reg.Load("v1", m0, tc); err != nil {
		return nil, fmt.Errorf("trainer: loading v1: %w", err)
	}
	srv := serve.New(reg, serve.Config{Sync: true, Workers: cfg.Parallel})
	defer srv.Close()
	if err := srv.Swap("v1"); err != nil {
		return nil, fmt.Errorf("trainer: activating v1: %w", err)
	}

	// Streaming side: the bus labels through a collector over the same
	// kernel (its executor is unused — results already ran).
	col := dataset.NewCollector(k, cfg.Seed)
	bus := stream.New(col, stream.Config{Buffer: cfg.Buffer, Workers: cfg.Parallel})

	tr, err := New(m0, tc, bus, PublishTo(srv), cfg.Train)
	if err != nil {
		return nil, err
	}

	// Observation: count executions and the latency to the first planted
	// bug, then stream the outcome, then forward to the caller's hooks.
	res := &LoopResult{ExecsToFirstBug: -1}
	execs := 0
	counter := &explore.Hooks{}
	if cfg.Hooks != nil {
		*counter = *cfg.Hooks
	}
	fwd := counter.ScheduleExecuted
	counter.ScheduleExecuted = func(c explore.Candidate, r *ski.Result) {
		execs++
		if res.ExecsToFirstBug < 0 && len(r.BugsHit) > 0 {
			res.ExecsToFirstBug = execs
		}
		if fwd != nil {
			fwd(c, r)
		}
	}

	c := campaign.Config{
		Name: cfg.Name, Seed: cfg.Seed, NumCTIs: cfg.NumCTIs,
		Opts: cfg.Opts, Cost: cfg.Cost,
		Pred:  serve.NewClient(srv, ""),
		Strat: cfg.Strat, Exec: cfg.Exec,
		Parallel: cfg.Parallel, Resilience: cfg.Resilience,
		Hooks: bus.Hooks(counter),
	}

	runner := campaign.NewRunner(k)
	jobs, err := runner.Stream(c)
	if err != nil {
		return nil, err
	}
	profs, err := runner.ProfileAll(jobs, c.Parallel)
	if err != nil {
		return nil, err
	}
	exp := runner.Explorer(c)
	fold := campaign.NewFold(c)
	// The closed loop interleaves the phases per CTI: plan against the
	// *currently served* version, execute, fold (streaming the outcomes),
	// then give the trainer a chance to retrain and hot-swap before the
	// next CTI plans. Planning stays sequential — the strategy's memory
	// spans CTIs — and each CTI's executions still fan out inside
	// ExecuteAll.
	for i := range jobs {
		plans, err := runner.PlanAll(c, exp, jobs[i:i+1], profs[i:i+1])
		if err != nil {
			return nil, err
		}
		outs, err := runner.ExecuteAll(c, plans)
		if err != nil {
			return nil, err
		}
		fold.SettleCTI(c, plans[0], profs[i], outs[0])
		round, err := tr.MaybeRound(fold.Seconds())
		if err != nil {
			return nil, err
		}
		if round != nil {
			// A new version is live: version-aware strategies (S4) reopen
			// their per-block trial budget, so the retrained model earns
			// fresh uncertainty labels instead of inheriting the caps its
			// predecessor exhausted.
			strategy.NotifyVersion(cfg.Strat, round.Version)
		}
	}
	res.Hist = fold.Finish()

	ds, err := bus.Close()
	if err != nil {
		return nil, err
	}
	stats := bus.Stats()
	res.Dataset = ds
	res.Examples = stats.Ingested
	res.Deduped = stats.Deduped
	res.Rounds = tr.Rounds()
	res.Versions = append([]string{"v1"}, tr.Versions()...)
	return res, nil
}
