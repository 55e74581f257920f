// Package razzer reproduces the Razzer integration case study (§5.6.1):
// given a target data race — a pair of racing instructions — find
// concurrent test inputs (CTIs) that reproduce it. Three variants are
// compared in Table 4:
//
//	Razzer       — pair STIs whose *sequential* coverage contains the
//	               racing instructions (the conservative original);
//	Razzer-Relax — also accept STIs where a racing instruction lies in a
//	               1-hop URB of the STI's sequential coverage;
//	Razzer-PIC   — filter Razzer-Relax candidates with the PIC model,
//	               keeping only CTIs predicted to cover both racing
//	               blocks under some random schedule.
//
// Candidates are then dynamically executed under many random schedules;
// a candidate is a true positive when the race is actually observed.
package razzer

import (
	"errors"
	"fmt"

	"snowcat/internal/cfg"
	"snowcat/internal/ctgraph"
	"snowcat/internal/explore"
	"snowcat/internal/kasm"
	"snowcat/internal/kernel"
	"snowcat/internal/parallel"
	"snowcat/internal/predictor"
	"snowcat/internal/race"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
	"snowcat/internal/xrand"
)

// Sentinel errors for callers to errors.Is against.
var (
	// ErrNoRacingPair reports a planted bug whose guard variable has no
	// store/load pair in the writer/reader syscall bodies.
	ErrNoRacingPair = errors.New("razzer: bug has no racing pair")
	// ErrUnknownSTI reports a candidate CTI referencing an STI outside
	// the finder's profiled pool.
	ErrUnknownSTI = errors.New("razzer: CTI references STI outside the pool")
)

// TargetRace is a known (or statically suspected) data race: a writing and
// a reading instruction on a shared address.
type TargetRace struct {
	WriteRef ski.InstrRef
	ReadRef  ski.InstrRef
	Addr     int32
}

func (t TargetRace) String() string {
	return fmt.Sprintf("target{%s w-> g%d <-r %s}", t.WriteRef, t.Addr, t.ReadRef)
}

// Matches reports whether a detected race is the target (the detector
// canonicalises pairs, so check both orders).
func (t TargetRace) Matches(r race.Race) bool {
	if r.Addr != t.Addr {
		return false
	}
	return (r.A == t.WriteRef && r.B == t.ReadRef) || (r.A == t.ReadRef && r.B == t.WriteRef)
}

// RaceFromBug derives the ground-truth racing pair of a planted bug: the
// writer syscall's store to the first guard variable and the reader
// syscall's load of it.
func RaceFromBug(k *kernel.Kernel, bug kernel.Bug) (TargetRace, error) {
	gA := bug.GuardVars[0]
	var t TargetRace
	t.Addr = gA
	found := 0
	scan := func(fn int32, op kasm.Op) (ski.InstrRef, bool) {
		for _, bid := range k.Func(fn).Blocks {
			b := k.Block(bid)
			for i := range b.Instrs {
				if b.Instrs[i].Op == op && b.Instrs[i].Addr == gA {
					return ski.InstrRef{Block: bid, Idx: int32(i)}, true
				}
			}
		}
		return ski.InstrRef{}, false
	}
	wFn := k.Syscalls[bug.WriterSyscall].Fn
	rFn := k.Syscalls[bug.ReaderSyscall].Fn
	if ref, ok := scan(wFn, kasm.OpStore); ok {
		t.WriteRef = ref
		found++
	}
	if ref, ok := scan(rFn, kasm.OpLoad); ok {
		t.ReadRef = ref
		found++
	}
	if found != 2 {
		return t, fmt.Errorf("%w: bug %d on g%d", ErrNoRacingPair, bug.ID, gA)
	}
	return t, nil
}

// Mode selects the CTI search algorithm.
type Mode int

const (
	Conservative Mode = iota // original Razzer
	Relax                    // Razzer-Relax
	PICFiltered              // Razzer-PIC
)

func (m Mode) String() string {
	switch m {
	case Conservative:
		return "Razzer"
	case Relax:
		return "Razzer-Relax"
	case PICFiltered:
		return "Razzer-PIC"
	}
	return "unknown"
}

// stiInfo caches per-STI analysis: sequential coverage and the SCB∪URB set.
type stiInfo struct {
	sti    *syz.STI
	prof   *syz.Profile
	scb    []bool // sequential coverage
	scbURB []bool // coverage plus 1-hop URBs
}

// Finder searches a pool of STIs for race-reproducing CTIs.
type Finder struct {
	K       *kernel.Kernel
	Builder *ctgraph.Builder
	pool    []stiInfo
	// PICSchedules is how many random schedules Razzer-PIC asks the model
	// about per candidate (the paper checks "some random schedules").
	PICSchedules int
	// Exec runs the reproduction executions; nil selects
	// explore.DefaultExecutor over the finder's kernel.
	Exec explore.Executor

	// led accumulates the finder's inference and execution counts.
	led *explore.Ledger
}

// executor resolves the configured executor, defaulting to the
// interpreter over the finder's kernel.
func (f *Finder) executor() explore.Executor {
	if f.Exec != nil {
		return f.Exec
	}
	return explore.DefaultExecutor(f.K)
}

// Ledger exposes the finder's accounting: model inferences spent by
// Razzer-PIC filtering and dynamic executions spent reproducing.
func (f *Finder) Ledger() *explore.Ledger { return f.led }

// NewFinder profiles the STI pool and precomputes its URB sets.
func NewFinder(k *kernel.Kernel, pool []*syz.STI) (*Finder, error) {
	g := cfg.Build(k)
	f := &Finder{K: k, Builder: ctgraph.NewBuilder(k, g), PICSchedules: 3,
		led: explore.NewLedger(explore.CostModel{})}
	for _, sti := range pool {
		prof, err := syz.Run(k, sti)
		if err != nil {
			return nil, fmt.Errorf("razzer: profiling pool: %w", err)
		}
		info := stiInfo{sti: sti, prof: prof, scb: prof.Covered}
		urbs := g.FindURBs(prof.Covered, 1)
		both := make([]bool, len(prof.Covered))
		copy(both, prof.Covered)
		for _, u := range urbs.URBs {
			both[u] = true
		}
		info.scbURB = both
		f.pool = append(f.pool, info)
	}
	return f, nil
}

// PoolSize returns the number of profiled STIs.
func (f *Finder) PoolSize() int { return len(f.pool) }

// FindCTIs returns the candidate CTIs for the target under the given mode.
// Thread A is always the write-side STI. For PICFiltered, pred must be a
// trained predictor; seed drives its schedule sampling.
func (f *Finder) FindCTIs(target TargetRace, mode Mode, pred predictor.Predictor, seed uint64) []ski.CTI {
	cover := func(info stiInfo, block int32) bool {
		if mode == Conservative {
			return info.scb[block]
		}
		return info.scbURB[block] // Relax and PICFiltered
	}
	var writers, readers []int
	for i, info := range f.pool {
		if cover(info, target.WriteRef.Block) {
			writers = append(writers, i)
		}
		if cover(info, target.ReadRef.Block) {
			readers = append(readers, i)
		}
	}
	rng := xrand.New(seed)
	var out []ski.CTI
	id := int64(0)
	for _, wi := range writers {
		for _, ri := range readers {
			if wi == ri {
				continue
			}
			cti := ski.CTI{ID: id, A: f.pool[wi].sti, B: f.pool[ri].sti}
			id++
			if mode == PICFiltered && !f.picAccepts(cti, f.pool[wi].prof, f.pool[ri].prof, target, pred, rng.Uint64()) {
				continue
			}
			out = append(out, cti)
		}
	}
	return out
}

// picAccepts asks the model whether some random schedule of the CTI is
// predicted to cover both racing blocks. The probe is an explore.Walk:
// PICSchedules sampler draws flow through GraphBuild and Score, the
// Select stage checks both racing vertices, and an ExecBudget of 1 stops
// at the first accepting schedule. Graphs derive from the CTI's base
// skeleton and scoring runs inside a per-CTI predictor bracket, both
// bit-identical to the per-schedule Build/Predict they replace.
func (f *Finder) picAccepts(cti ski.CTI, pa, pb *syz.Profile, target TargetRace, pred predictor.Predictor, seed uint64) bool {
	sampler := ski.NewSampler(pa, pb, seed)
	base := f.Builder.BuildBase(cti, pa, pb)
	predictor.BeginCTI(pred, base)
	defer predictor.EndCTI(pred)
	th := pred.Threshold()
	w := &explore.Walk{
		Source: explore.SampleN(cti, sampler, f.PICSchedules),
		Build:  func(c explore.Candidate) *ctgraph.Graph { return base.WithSchedule(c.Sched) },
		Score:  pred,
		Accept: func(c explore.Candidate, g *ctgraph.Graph, scores []float64) bool {
			wi := g.VertexOf(target.WriteRef.Block)
			ri := g.VertexOf(target.ReadRef.Block)
			if wi < 0 || ri < 0 {
				return false
			}
			return scores[wi] >= th && scores[ri] >= th
		},
		Budget: explore.Budget{ExecBudget: 1},
		Ledger: f.led,
	}
	return len(w.Run()) > 0
}

// ReproConfig controls the dynamic reproduction attempt.
type ReproConfig struct {
	SchedulesPerCTI int // random schedules tried per candidate (paper: 5000)
	Seed            uint64
	ExecSeconds     float64 // simulated cost per dynamic execution (paper: 2.8)
	Shuffles        int     // queue shuffles for the average-time estimate (paper: 1000)
	// Parallel bounds the worker pool fanning candidate CTIs out; <= 0
	// selects GOMAXPROCS. The result is identical for every worker count.
	Parallel int
	// Resilience, when non-nil, runs every schedule execution through the
	// fault-injection retry layer: a schedule whose attempts all fail is
	// skipped (it cannot witness the race), and a candidate accumulating
	// Policy.QuarantineAfter skipped schedules is abandoned. Nil keeps the
	// legacy fail-fast sweep bit-identically.
	Resilience *explore.Resilience
}

// ReproResult is one row cell of Table 4.
type ReproResult struct {
	Mode       Mode
	CTIs       int // candidates selected
	TPCTIs     int // candidates that actually reproduce the race
	Execs      int // dynamic executions actually performed (incl. retries)
	AvgHours   float64
	WorstHours float64
	Reproduced bool
	// Resilience counters; all zero when ReproConfig.Resilience is nil.
	Retries     int // executions retried after injected/real failures
	Skipped     int // schedules given up on after exhausting retries
	Quarantined int // candidate CTIs abandoned as repeat offenders
}

func (r ReproResult) String() string {
	if !r.Reproduced {
		return fmt.Sprintf("%s: %d CTIs, 0 TP, Na / Na", r.Mode, r.CTIs)
	}
	return fmt.Sprintf("%s: %d CTIs, %d TP, %.1fh / %.1fh", r.Mode, r.CTIs, r.TPCTIs, r.AvgHours, r.WorstHours)
}

// Reproduce executes each candidate under cfg.SchedulesPerCTI random
// schedules and reports reproduction statistics. The average time models
// the paper's procedure: shuffle the CTI execution queue cfg.Shuffles
// times and average the simulated time until the first true positive
// finishes; the worst case puts every true positive at the queue's end.
//
// Candidates fan out across cfg.Parallel workers: the per-CTI sampler
// seeds are pre-drawn in canonical queue order, each candidate's schedule
// sweep is independent, and the true-positive fold — like the shuffle
// phase after it — is sequential, so the result is bit-identical at any
// worker count. Executions are charged to the finder's ledger.
func (f *Finder) Reproduce(target TargetRace, ctis []ski.CTI, cfg ReproConfig) (ReproResult, error) {
	res := ReproResult{CTIs: len(ctis)}
	if len(ctis) == 0 {
		return res, nil
	}
	profOf := make(map[int64]*syz.Profile, len(f.pool))
	for _, info := range f.pool {
		profOf[info.sti.ID] = info.prof
	}

	rng := xrand.New(cfg.Seed)
	seeds := make([]uint64, len(ctis))
	for i := range seeds {
		seeds[i] = rng.Uint64()
	}
	ex := f.executor()
	type attempt struct {
		tp      bool
		execs   int
		retries int
		skipped int
		extra   float64 // simulated backoff + fault penalty seconds
		gaveUp  bool    // candidate abandoned after QuarantineAfter skips
	}
	atts, err := parallel.Map(cfg.Parallel, len(ctis), func(i int) (attempt, error) {
		cti := ctis[i]
		pa, pb := profOf[cti.A.ID], profOf[cti.B.ID]
		if pa == nil || pb == nil {
			return attempt{}, fmt.Errorf("%w: CTI %d", ErrUnknownSTI, cti.ID)
		}
		var att attempt
		sampler := ski.NewSampler(pa, pb, seeds[i])
		for s := 0; s < cfg.SchedulesPerCTI; s++ {
			var out *ski.Result
			if cfg.Resilience != nil {
				// Quarantine tallies locally (this worker owns the whole
				// candidate); the sequential fold settles the counters.
				rep := cfg.Resilience.Execute(ex, cti, sampler.Next())
				att.execs += rep.Attempts
				att.retries += rep.Attempts - 1
				att.extra += rep.BackoffSeconds + rep.PenaltySeconds
				if rep.Err != nil {
					att.skipped++
					if q := cfg.Resilience.Policy.QuarantineAfter; q > 0 && att.skipped >= q {
						att.gaveUp = true
						break
					}
					continue
				}
				out = rep.Res
			} else {
				var err error
				out, err = ex.Execute(cti, sampler.Next())
				if err != nil {
					return att, fmt.Errorf("%w: %w", explore.ErrExec, err)
				}
				att.execs++
			}
			for _, r := range race.Detect(out) {
				if target.Matches(r) {
					att.tp = true
					break
				}
			}
			if att.tp {
				break
			}
		}
		return att, nil
	})
	if err != nil {
		return res, err
	}
	tp := make([]bool, len(ctis))
	extra := 0.0
	for i, att := range atts {
		tp[i] = att.tp
		if att.tp {
			res.TPCTIs++
		}
		res.Execs += att.execs
		res.Retries += att.retries
		res.Skipped += att.skipped
		extra += att.extra
		if att.gaveUp {
			res.Quarantined++
		}
	}
	f.led.Charge(res.Execs, 0)
	if extra != 0 {
		f.led.ChargeSeconds(extra)
	}
	f.led.RecordRetries(res.Retries)
	f.led.RecordSkips(res.Skipped)
	f.led.RecordQuarantines(res.Quarantined)
	if res.TPCTIs == 0 {
		return res, nil
	}
	res.Reproduced = true

	// Simulated time accounting: each queued CTI costs a full schedule
	// sweep; reaching the first true positive ends the search. The
	// per-CTI charge runs through a ledger so the cost constant and the
	// clock arithmetic are the shared explore ones.
	sweep := explore.NewLedger(explore.CostModel{ExecSeconds: cfg.ExecSeconds})
	sweep.Charge(cfg.SchedulesPerCTI, 0)
	perCTI := sweep.Hours()
	res.WorstHours = float64(len(ctis)-res.TPCTIs+1) * perCTI
	shuffles := cfg.Shuffles
	if shuffles <= 0 {
		shuffles = 1000
	}
	total := 0.0
	order := make([]int, len(ctis))
	for i := range order {
		order[i] = i
	}
	for s := 0; s < shuffles; s++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for pos, idx := range order {
			if tp[idx] {
				total += float64(pos+1) * perCTI
				break
			}
		}
	}
	res.AvgHours = total / float64(shuffles)
	return res, nil
}

// SpreadCap shuffles candidates deterministically and truncates to n, so
// a capped reproduction attempt samples across the writer×reader grid
// instead of exhausting one writer's row first.
func SpreadCap(ctis []ski.CTI, n int, seed uint64) []ski.CTI {
	out := append([]ski.CTI(nil), ctis...)
	rng := xrand.New(seed)
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// BuildPool generates a pool of nRandom random STIs plus, per syscall
// involved in the targets, nDirected STIs ending in that syscall — the
// "fuzzing generates many STIs" stage of Razzer's pipeline.
func BuildPool(k *kernel.Kernel, targets []int32, nRandom, nDirected int, seed uint64) []*syz.STI {
	gen := syz.NewGenerator(k, seed)
	var pool []*syz.STI
	for i := 0; i < nRandom; i++ {
		pool = append(pool, gen.Generate())
	}
	for _, sc := range targets {
		for i := 0; i < nDirected; i++ {
			pool = append(pool, gen.GenerateFor(sc))
		}
	}
	return pool
}
