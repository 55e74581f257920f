// Package explore is the shared exploration engine behind every Snowcat
// consumer. MLPCT per-CTI exploration (§5.3), campaign runs (§5.3.2),
// Razzer candidate filtering (§5.6.1) and Snowboard exemplar sampling
// (§5.6.2) are all the same loop — propose candidates, build their CT
// graphs, score them with the predictor, select, execute — so the loop
// lives here once, as a stage-based pipeline:
//
//	CandidateSource → GraphBuild → Score → Select → Execute
//
// A Walk runs the first four stages: proposals are drawn from a Source in
// canonical order, their graphs are built and scored in batches on a
// worker pool, and the Select stage walks them strictly in proposal order
// under a Budget. ExecutePlan is the fifth stage. All accounting — the
// proposal/inference/execution counters and the simulated clock — flows
// through a single Ledger, and per-stage Hooks let campaigns and the CLI
// observe progress without private counters.
//
// The determinism contract matches the rest of the repo: a Walk's output,
// its ledger charges, and its hook firing order are bit-identical at every
// batch size and worker count, because only the pure GraphBuild and Score
// stages fan out while proposing, selecting, charging, and folding stay
// sequential. Candidates past the budget stopping point are discarded
// unwalked and uncharged, exactly as if they had never been proposed.
package explore

import (
	"fmt"

	"snowcat/internal/ctgraph"
	"snowcat/internal/faults"
	"snowcat/internal/parallel"
	"snowcat/internal/predictor"
	"snowcat/internal/ski"
)

// Candidate is one proposal flowing through the pipeline.
type Candidate struct {
	// Seq is the canonical proposal order, 0-based within one walk.
	Seq int
	// CTI is the concurrent test input the candidate belongs to.
	CTI ski.CTI
	// Sched is the proposed interleaving.
	Sched ski.Schedule
	// Payload is a caller-defined index (e.g. a Snowboard cluster member);
	// sources that don't use it leave it 0.
	Payload int
}

// Source is the CandidateSource stage: it proposes candidates in canonical
// order, returning ok=false when the proposal space is exhausted. Sources
// are consumed sequentially by the walk, so they need no locking.
type Source interface {
	Next() (Candidate, bool)
}

// SourceFunc adapts a closure to a Source.
type SourceFunc func() (Candidate, bool)

// Next implements Source.
func (f SourceFunc) Next() (Candidate, bool) { return f() }

// SampleUnique proposes unique PCT-sampled schedules of one CTI: each call
// draws up to maxTries schedules and yields the first whose Key has not
// been seen in this source's lifetime (the proposal stream both PCT and
// MLPCT explore, §5.3).
func SampleUnique(cti ski.CTI, sampler *ski.Sampler, maxTries int) Source {
	seen := make(map[string]bool)
	return SourceFunc(func() (Candidate, bool) {
		sched, ok := sampler.NextUnique(seen, maxTries)
		if !ok {
			return Candidate{}, false
		}
		return Candidate{CTI: cti, Sched: sched}, true
	})
}

// SampleN proposes exactly n sampler draws without deduplication — the
// "some random schedules" probe Razzer-PIC asks the model about.
func SampleN(cti ski.CTI, sampler *ski.Sampler, n int) Source {
	drawn := 0
	return SourceFunc(func() (Candidate, bool) {
		if drawn >= n {
			return Candidate{}, false
		}
		drawn++
		return Candidate{CTI: cti, Sched: sampler.Next()}, true
	})
}

// Members proposes n fixed candidates with Payload 0..n-1, each described
// by at — the shape of Snowboard's cluster walk, where the candidates are
// cluster members under one synthetic hint schedule.
func Members(n int, at func(i int) (ski.CTI, ski.Schedule)) Source {
	i := 0
	return SourceFunc(func() (Candidate, bool) {
		if i >= n {
			return Candidate{}, false
		}
		cti, sched := at(i)
		c := Candidate{CTI: cti, Sched: sched, Payload: i}
		i++
		return c, true
	})
}

// Budget bounds one walk. A zero or negative limit means "unlimited";
// callers that treat a non-positive budget as "select nothing" (mlpct's
// §5.3.1 semantics) short-circuit before starting the walk.
type Budget struct {
	// ExecBudget caps how many candidates the Select stage may accept.
	ExecBudget int
	// InferenceCap caps how many candidates the Score stage may charge.
	InferenceCap int
}

// Walk is the proposal/selection pipeline for one exploration unit (a CTI,
// a Razzer candidate probe, a Snowboard cluster). Zero-value stages
// degrade gracefully: a nil Build skips graph construction entirely (plain
// PCT proposes and accepts without ever building a graph), a nil Score
// skips scoring and inference charging, and a nil Accept selects every
// walked candidate.
type Walk struct {
	Source Source
	// Build is the GraphBuild stage; it must be pure (it runs on pool
	// workers). Nil when no downstream stage needs a graph.
	Build func(c Candidate) *ctgraph.Graph
	// Score is the scoring stage; predictors with batch or per-CTI fast
	// paths (predictor.BatchScorer, predictor.CTIScorer) are used
	// automatically via predictor.ScoreAll.
	Score predictor.Predictor
	// Accept is the Select stage, called strictly in proposal order; it
	// may carry cross-candidate memory (strategy state).
	Accept func(c Candidate, g *ctgraph.Graph, scores []float64) bool

	Budget Budget
	// Batch is how many candidates are proposed per round so GraphBuild
	// and Score can process them as one batch; <= 0 means 1.
	Batch int
	// Workers bounds the pool for the GraphBuild and Score stages; <= 0
	// means 1 (sequential).
	Workers int

	// Ledger receives the walk's charges; nil allocates a throwaway
	// counter ledger. Budget limits are judged against the charges this
	// walk adds, so a shared ledger with prior history is fine.
	Ledger *Ledger
	Hooks  *Hooks

	// Resilience, when non-nil, degrades a panicking GraphBuild stage to
	// a skipped-and-logged candidate instead of re-raising the worker
	// panic. Nil keeps the legacy fail-fast behaviour bit-identically.
	Resilience *Resilience

	cti ski.CTI // CTI of the last proposed candidate, for BudgetExhausted
}

// Run executes the propose→build→score→select walk and returns the
// selected candidates in selection order.
func (w *Walk) Run() []Candidate {
	if w.Score != nil && w.Build == nil {
		panic("explore: Walk.Score requires a Build stage")
	}
	batch := w.Batch
	if batch <= 0 {
		batch = 1
	}
	led := w.Ledger
	if led == nil {
		led = NewLedger(CostModel{})
	}
	startInfer := led.Inferences()
	inferExhausted := func() bool {
		return w.Budget.InferenceCap > 0 && led.Inferences()-startInfer >= w.Budget.InferenceCap
	}
	execExhausted := func(selected int) bool {
		return w.Budget.ExecBudget > 0 && selected >= w.Budget.ExecBudget
	}

	var selected []Candidate
	cands := make([]Candidate, 0, batch)
	seq := 0
	dry := false
	for !dry && !execExhausted(len(selected)) && !inferExhausted() {
		cands = cands[:0]
		for len(cands) < batch {
			c, ok := w.Source.Next()
			if !ok {
				dry = true
				break
			}
			c.Seq = seq
			seq++
			w.cti = c.CTI
			cands = append(cands, c)
		}
		if len(cands) == 0 {
			break
		}
		var graphs []*ctgraph.Graph
		if w.Build != nil {
			build := w.Build
			if w.Resilience != nil {
				build = func(c Candidate) *ctgraph.Graph { return safeBuild(w.Build, c) }
			}
			var err error
			graphs, err = parallel.Map(w.Workers, len(cands), func(i int) (*ctgraph.Graph, error) {
				return build(cands[i]), nil
			})
			if err != nil {
				panic(err) // only a worker panic can land here; re-raise it
			}
		}
		var scores [][]float64
		if w.Score != nil {
			// With resilience, a failed build leaves a nil graph; score the
			// surviving graphs as one batch and scatter the scores back.
			// With no failures (and always without resilience) this is the
			// identity and the legacy single ScoreAll call.
			toScore, idx := graphs, []int(nil)
			if w.Resilience != nil {
				for i, g := range graphs {
					if g == nil {
						if idx == nil {
							idx = make([]int, 0, len(graphs))
							toScore = append([]*ctgraph.Graph(nil), graphs[:i]...)
							for j := 0; j < i; j++ {
								idx = append(idx, j)
							}
						}
						continue
					}
					if idx != nil {
						idx = append(idx, i)
						toScore = append(toScore, g)
					}
				}
			}
			raw := predictor.ScoreAll(w.Score, toScore, w.Workers)
			if idx == nil {
				scores = raw
			} else {
				scores = make([][]float64, len(cands))
				for j, i := range idx {
					scores[i] = raw[j]
				}
			}
			w.Hooks.batchScored(cands[0].CTI, len(toScore))
		}
		for i, c := range cands {
			if execExhausted(len(selected)) || inferExhausted() {
				break // unconsumed tail: the canonical walk stops here
			}
			led.Propose(1)
			w.Hooks.candidateProposed(c)
			if w.Resilience != nil && w.Build != nil && graphs[i] == nil {
				// The build stage panicked on this candidate: skip-and-log
				// (its proposal is charged, no inference ever ran).
				led.RecordSkips(1)
				w.Hooks.CandidateSkippedHook(c, ErrBuild)
				continue
			}
			var g *ctgraph.Graph
			var sc []float64
			if graphs != nil {
				g = graphs[i]
			}
			if scores != nil {
				sc = scores[i]
				led.Charge(0, 1)
			}
			if w.Accept != nil && !w.Accept(c, g, sc) {
				continue // fruitless candidate: skip the dynamic execution
			}
			selected = append(selected, c)
			w.Hooks.scheduleSelected(c)
		}
	}
	if execExhausted(len(selected)) || inferExhausted() {
		w.Hooks.budgetExhausted(w.cti, led)
	}
	return selected
}

// ExecutePlan is the Execute stage: it runs every selected schedule of one
// CTI through the executor on at most workers goroutines (<= 0 means 1)
// and returns the results in selection order, so the output is identical
// for any worker count. Each result is charged to the ledger — and its
// hook fired — during the sequential in-order fold.
//
// With res == nil the stage is fail-fast: a failed execution wraps ErrExec
// alongside the underlying ski error and no charges are recorded. With a
// resilience layer, executions run through the fault injector and retry
// policy instead; a candidate whose every attempt failed (or whose CTI is
// quarantined) yields a nil entry in the returned slice — skip-and-log
// degradation, never an error — and the fold charges attempts, backoff and
// penalties per the policy.
func ExecutePlan(ex Executor, cti ski.CTI, scheds []ski.Schedule, workers int,
	led *Ledger, hooks *Hooks, res *Resilience) ([]*ski.Result, error) {

	if led == nil {
		led = NewLedger(CostModel{})
	}
	if res == nil {
		results, err := parallel.Map(workers, len(scheds), func(i int) (*ski.Result, error) {
			return ex.Execute(cti, scheds[i])
		})
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrExec, err)
		}
		for i, r := range results {
			led.Charge(1, 0)
			hooks.ScheduleExecutedHook(Candidate{Seq: i, CTI: cti, Sched: scheds[i]}, r)
		}
		return results, nil
	}
	reports, err := parallel.Map(workers, len(scheds), func(i int) (faults.Report, error) {
		return res.Execute(ex, cti, scheds[i]), nil
	})
	if err != nil {
		panic(err) // faults.Run recovers exec panics; reaching this is a pipeline bug
	}
	out := make([]*ski.Result, len(scheds))
	for i, rep := range reports {
		c := Candidate{Seq: i, CTI: cti, Sched: scheds[i]}
		if r := res.Fold(c, rep, led, hooks); r != nil {
			out[i] = r
			hooks.ScheduleExecutedHook(c, r)
		}
	}
	return out, nil
}
