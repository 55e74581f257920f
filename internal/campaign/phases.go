package campaign

import (
	"fmt"
	"sort"

	"snowcat/internal/explore"
	"snowcat/internal/faults"
	"snowcat/internal/mlpct"
	"snowcat/internal/parallel"
	"snowcat/internal/race"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
	"snowcat/internal/xrand"
)

// The campaign pipeline is exposed phase by phase so other drivers — the
// online learning loop (trainer.Learn) and the wall-clock benchmark — can
// run the identical arithmetic while owning the control flow. Runner.Run
// is itself just the composition of these phases; the pinned-history test
// holds it bit-identical to the historical monolithic loop.

// CTIJob is one unit of the canonical CTI stream: the concurrent test
// input plus its per-CTI exploration seed.
type CTIJob struct {
	CTI  ski.CTI
	Seed uint64
}

// Stream validates the config and draws the canonical CTI stream — phase 0.
// The stream is a pure function of (kernel, c.Seed, c.NumCTIs): every
// driver that needs the same campaign draws the same jobs, which is what
// lets any other composition of the phases reproduce Runner.Run's
// campaign.
func (r *Runner) Stream(c Config) ([]CTIJob, error) {
	if c.NumCTIs <= 0 {
		return nil, fmt.Errorf("%w: NumCTIs must be positive, got %d", ErrInvalidConfig, c.NumCTIs)
	}
	if err := c.Cost.Validate(); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	gen := syz.NewGenerator(r.K, c.Seed)
	rng := xrand.New(c.Seed ^ 0x5eed)
	jobs := make([]CTIJob, c.NumCTIs)
	for i := range jobs {
		a, b := gen.Generate(), gen.Generate()
		jobs[i] = CTIJob{CTI: ski.CTI{ID: int64(i), A: a, B: b}, Seed: rng.Uint64()}
	}
	return jobs, nil
}

// Profiles holds one CTI's STI profiles.
type Profiles struct {
	PA, PB *syz.Profile
}

// ProfileAll runs phase 1 — STI profiling — over the given jobs, fanned
// across workers. The result is index-aligned with jobs.
func (r *Runner) ProfileAll(jobs []CTIJob, workers int) ([]Profiles, error) {
	return parallel.Map(parallel.Workers(workers), len(jobs), func(i int) (Profiles, error) {
		pa, err := syz.Run(r.K, jobs[i].CTI.A)
		if err != nil {
			return Profiles{}, err
		}
		pb, err := syz.Run(r.K, jobs[i].CTI.B)
		if err != nil {
			return Profiles{}, err
		}
		return Profiles{PA: pa, PB: pb}, nil
	})
}

// Explorer builds the phase-2 explorer for this campaign (selection-plan
// construction). Callers that score through another predictor — the
// learning loop scores through a serving client — still share the
// planning code.
func (r *Runner) Explorer(c Config) *mlpct.Explorer {
	opts := c.Opts
	if opts.Parallel <= 0 {
		opts.Parallel = parallel.Workers(c.Parallel)
	}
	exp := mlpct.NewExplorer(r.K, r.Builder, opts)
	exp.Exec = c.Exec
	exp.Resilience = c.Resilience
	if c.Pred != nil {
		// MLPCT plans are built sequentially (the strategy's memory spans
		// CTIs), so the walk-level hooks stay deterministic.
		exp.Hooks = c.Hooks
	}
	return exp
}

// PlanAll runs phase 2 over the given jobs: sequentially for MLPCT (the
// strategy's memory spans CTIs), in parallel for plain PCT. The result is
// index-aligned with jobs.
func (r *Runner) PlanAll(c Config, exp *mlpct.Explorer, jobs []CTIJob, profs []Profiles) ([]*mlpct.Plan, error) {
	if c.Pred != nil {
		plans := make([]*mlpct.Plan, len(jobs))
		for i := range jobs {
			plans[i] = exp.PlanMLPCT(jobs[i].CTI, profs[i].PA, profs[i].PB, jobs[i].Seed, c.Pred, c.Strat)
		}
		return plans, nil
	}
	return parallel.Map(parallel.Workers(c.Parallel), len(jobs), func(i int) (*mlpct.Plan, error) {
		return exp.PlanPCT(jobs[i].CTI, profs[i].PA, profs[i].PB, jobs[i].Seed), nil
	})
}

// ExecOutcome is one dynamic execution's result, race-detected.
type ExecOutcome struct {
	Res   *ski.Result
	Races []race.Race
	Rep   faults.Report // resilient campaigns only
}

// ExecuteAll runs phase 3 — every planned (CTI, schedule) execution plus
// race detection — flattened across CTIs in one worker pool, then regrouped
// per plan: out[i][j] is plan i's schedule j.
func (r *Runner) ExecuteAll(c Config, plans []*mlpct.Plan) ([][]ExecOutcome, error) {
	type execJob struct{ cti, sched int }
	var flat []execJob
	for i, p := range plans {
		for j := range p.Scheds {
			flat = append(flat, execJob{cti: i, sched: j})
		}
	}
	workers := parallel.Workers(c.Parallel)
	ex := c.Exec
	if ex == nil {
		ex = explore.DefaultExecutor(r.K)
	}
	var execs []ExecOutcome
	var err error
	if c.Resilience != nil {
		// Executions run through the fault injector and retry loop; race
		// detection still fans out here, on the successful results. Fault
		// decisions are pure per-attempt hashes, so the reports — like the
		// fold — are identical at every worker count.
		execs, err = parallel.Map(workers, len(flat), func(k int) (ExecOutcome, error) {
			j := flat[k]
			rep := c.Resilience.Execute(ex, plans[j.cti].CTI, plans[j.cti].Scheds[j.sched])
			e := ExecOutcome{Res: rep.Res, Rep: rep}
			if rep.Err == nil {
				e.Races = race.Detect(rep.Res)
			}
			return e, nil
		})
	} else {
		execs, err = parallel.Map(workers, len(flat), func(k int) (ExecOutcome, error) {
			j := flat[k]
			res, err := ex.Execute(plans[j.cti].CTI, plans[j.cti].Scheds[j.sched])
			if err != nil {
				return ExecOutcome{}, err
			}
			return ExecOutcome{Res: res, Races: race.Detect(res)}, nil
		})
	}
	if err != nil {
		return nil, err
	}
	out := make([][]ExecOutcome, len(plans))
	k := 0
	for i, p := range plans {
		out[i] = execs[k : k+len(p.Scheds) : k+len(p.Scheds)]
		k += len(p.Scheds)
	}
	return out, nil
}

// Fold is the phase-4 accumulator: the cumulative race/block/bug sets, the
// simulated clock, and the history points, settled one CTI at a time in
// canonical order.
type Fold struct {
	hist   *History
	races  *race.Set
	blocks map[int32]bool
	led    *explore.Ledger
}

// NewFold opens the accumulator and charges the model start-up cost — the
// first entry of the simulated clock, exactly as the monolithic loop did.
func NewFold(c Config) *Fold {
	led := explore.NewLedger(c.Cost)
	led.ChargeStartup()
	return &Fold{
		hist: &History{
			Name:      c.Name,
			Points:    make([]Point, 0, c.NumCTIs),
			BugsFound: make(map[int32]bool),
		},
		races:  race.NewSet(),
		blocks: make(map[int32]bool),
		led:    led,
	}
}

// SettleCTI folds one CTI's executions into the accumulator: race/block/
// bug accumulation, the CTI's single clock charge, and its history point.
// Calls must follow canonical CTI order — the fold is the sequential spine
// that makes every parallel driver reproduce the serial walk.
func (f *Fold) SettleCTI(c Config, p *mlpct.Plan, profs Profiles, execs []ExecOutcome) {
	pa, pb := profs.PA, profs.PB
	fold := func(j int, e ExecOutcome) {
		f.races.Add(e.Races)
		for id, cov := range e.Res.Covered {
			if cov && !pa.Covered[id] && !pb.Covered[id] {
				f.blocks[int32(id)] = true
			}
		}
		for _, bug := range e.Res.BugsHit {
			f.hist.BugsFound[bug] = true
		}
		c.Hooks.ScheduleExecutedHook(explore.Candidate{
			Seq: j, CTI: p.CTI, Sched: p.Scheds[j],
		}, e.Res)
	}
	if c.Resilience == nil {
		for j := range p.Scheds {
			fold(j, execs[j])
		}
		f.led.Propose(p.Proposed)
		f.led.Charge(len(p.Scheds), p.Inferences)
	} else {
		// Resilient settle: quarantined candidates skip uncharged, the
		// CTI's surviving attempts and inferences are charged as one
		// expression — bit-identical to the legacy clock arithmetic
		// when no fault ever fires — and backoff/penalty seconds ride
		// on top only when non-zero.
		attempts, retries := 0, 0
		extra := 0.0
		for j := range p.Scheds {
			e := execs[j]
			cand := explore.Candidate{Seq: j, CTI: p.CTI, Sched: p.Scheds[j]}
			if c.Resilience.Quarantined(p.CTI.ID) {
				f.led.RecordSkips(1)
				c.Hooks.CandidateSkippedHook(cand, faults.ErrQuarantined)
				continue
			}
			attempts += e.Rep.Attempts
			retries += e.Rep.Attempts - 1
			extra += e.Rep.BackoffSeconds + e.Rep.PenaltySeconds
			if e.Rep.Attempts > 1 {
				c.Hooks.ExecRetriedHook(cand, e.Rep.Attempts-1)
			}
			if e.Rep.Err != nil {
				f.led.RecordSkips(1)
				c.Hooks.CandidateSkippedHook(cand, e.Rep.Err)
				if c.Resilience.NoteFailure(p.CTI.ID) {
					f.led.RecordQuarantines(1)
					c.Hooks.CTIQuarantinedHook(p.CTI)
				}
				continue
			}
			fold(j, e)
		}
		f.led.RecordRetries(retries)
		f.led.Propose(p.Proposed)
		f.led.Charge(attempts, p.Inferences)
		if extra != 0 {
			f.led.ChargeSeconds(extra)
		}
	}
	f.hist.CTIs++
	f.hist.Points = append(f.hist.Points, Point{
		Hours:  f.led.Hours(),
		Races:  f.races.Size(),
		Blocks: len(f.blocks),
	})
}

// Seconds exposes the fold's simulated clock — what the online trainer's
// retrain-every schedule ticks against.
func (f *Fold) Seconds() float64 { return f.led.Seconds() }

// Finish seals the accumulator into the campaign history. The fold must
// not be settled further afterwards.
func (f *Fold) Finish() *History {
	hist := f.hist
	hist.TotalExecs = f.led.Execs()
	hist.TotalInfers = f.led.Inferences()
	hist.Retries = f.led.Retries()
	hist.Skipped = f.led.Skipped()
	hist.Quarantined = f.led.Quarantined()
	// The per-CTI clock charges are non-negative (Validate), so Points are
	// already in clock order; the stable sort is a guard that keeps the
	// invariant explicit for future cost models.
	sort.SliceStable(hist.Points, func(i, j int) bool { return hist.Points[i].Hours < hist.Points[j].Hours })
	hist.FinalRaces = f.races.Size()
	hist.FinalBlocks = len(f.blocks)
	return hist
}
