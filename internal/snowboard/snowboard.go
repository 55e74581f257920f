// Package snowboard reproduces the Snowboard integration case study
// (§5.6.2): CTIs are clustered by INS-PAIR — the (write instruction, read
// instruction, shared address) triple their constituent STIs can realise
// as an inter-thread data flow — and only sampled exemplars of each
// cluster are dynamically tested. Table 5 compares exemplar samplers:
//
//	SB-RND(p)   — sample a fixed fraction p of the cluster at random;
//	SB-PIC(S1)  — predict coverage of each CTI under a synthetic
//	              write→read scheduling hint, select those with a new
//	              predicted coverage bitmap;
//	SB-PIC(S2)  — same predictions, select those predicted to cover at
//	              least one new block.
package snowboard

import (
	"errors"
	"fmt"
	"sort"

	"snowcat/internal/ctgraph"
	"snowcat/internal/explore"
	"snowcat/internal/kernel"
	"snowcat/internal/predictor"
	"snowcat/internal/ski"
	"snowcat/internal/strategy"
	"snowcat/internal/syz"
	"snowcat/internal/xrand"
)

// ErrEmptyTrace reports a member whose write-side profile has no executed
// instructions, leaving Explore nothing to derive switch points from.
var ErrEmptyTrace = errors.New("snowboard: member has empty instruction trace")

// PairKey identifies an INS-PAIR cluster: a potential inter-thread data
// flow from a write instruction to a read instruction on one address.
type PairKey struct {
	WriteRef ski.InstrRef
	ReadRef  ski.InstrRef
	Addr     int32
}

func (k PairKey) String() string {
	return fmt.Sprintf("pair{%s -> %s on g%d}", k.WriteRef, k.ReadRef, k.Addr)
}

// Member is one CTI of a cluster together with its profiles. Thread A is
// the write-side STI.
type Member struct {
	CTI          ski.CTI
	ProfA, ProfB *syz.Profile
}

// Cluster groups the CTIs that can realise one INS-PAIR.
type Cluster struct {
	Key     PairKey
	Members []Member
}

// Hint returns the synthetic scheduling hint Snowboard-PIC feeds the
// model: the write-side thread yields right after the write instruction,
// so the read observes the written value (§5.6.2).
func (c *Cluster) Hint() ski.Schedule {
	return ski.Schedule{Hints: []ski.Hint{{Thread: 0, Ref: c.Key.WriteRef}}}
}

// ClusterCTIs builds INS-PAIR clusters from a set of profiled CTI
// candidates: every (write in A, read in B, same address) combination of
// the two sequential traces is one pair key. Clusters are returned in
// deterministic key order.
func ClusterCTIs(members []Member) []*Cluster {
	byKey := make(map[PairKey]*Cluster)
	for _, m := range members {
		seen := make(map[PairKey]bool)
		for _, w := range m.ProfA.Accesses {
			if !w.Write {
				continue
			}
			for _, r := range m.ProfB.Accesses {
				if r.Write || r.Addr != w.Addr {
					continue
				}
				key := PairKey{WriteRef: w.Ref, ReadRef: r.Ref, Addr: w.Addr}
				if seen[key] {
					continue
				}
				seen[key] = true
				c := byKey[key]
				if c == nil {
					c = &Cluster{Key: key}
					byKey[key] = c
				}
				c.Members = append(c.Members, m)
			}
		}
	}
	out := make([]*Cluster, 0, len(byKey))
	for _, c := range byKey {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.String() < out[j].Key.String() })
	return out
}

// Sampler selects exemplar member indices from a cluster.
type Sampler interface {
	Name() string
	Sample(c *Cluster) []int
}

// RND samples a fixed fraction of the cluster uniformly (at least one
// member for non-empty clusters).
type RND struct {
	Frac float64
	rng  *xrand.RNG
}

// NewRND creates the SB-RND sampler.
func NewRND(frac float64, seed uint64) *RND {
	return &RND{Frac: frac, rng: xrand.New(seed)}
}

func (s *RND) Name() string { return fmt.Sprintf("SB-RND(%d%%)", int(s.Frac*100+0.5)) }

func (s *RND) Sample(c *Cluster) []int {
	n := len(c.Members)
	if n == 0 {
		return nil
	}
	k := int(s.Frac*float64(n) + 0.5)
	if k < 1 {
		k = 1
	}
	idx := s.rng.Sample(n, k)
	sort.Ints(idx)
	return idx
}

// PIC samples members whose predicted coverage under the cluster's
// synthetic hint is interesting per the selection strategy. Each Sample is
// one explore.Walk over the cluster's members: graph building and scoring
// fan out across Parallel workers in Batch-sized rounds while the strategy
// walks members strictly in cluster order, so the sampled set is identical
// for every setting.
type PIC struct {
	Builder *ctgraph.Builder
	Pred    predictor.Predictor
	Strat   strategy.Strategy
	Label   string
	// Batch is how many members are proposed per scoring round; <= 0
	// means 1.
	Batch int
	// Parallel bounds the graph-build/score worker pool; <= 0 means 1.
	Parallel int
	// Hooks observes the walk (see explore.Hooks); nil disables.
	Hooks *explore.Hooks

	// led accumulates the sampler's proposal and inference counts.
	led *explore.Ledger
}

// NewPIC creates an SB-PIC sampler with the given strategy (S1 or S2).
func NewPIC(b *ctgraph.Builder, pred predictor.Predictor, strat strategy.Strategy) *PIC {
	return &PIC{Builder: b, Pred: pred, Strat: strat,
		Label: fmt.Sprintf("SB-PIC(%s)", strat.Name()),
		led:   explore.NewLedger(explore.CostModel{})}
}

func (s *PIC) Name() string { return s.Label }

// Ledger exposes the sampler's accounting: one inference per member walked
// across all Sample calls. Nil until the sampler has sampled (literal-
// constructed samplers allocate it lazily).
func (s *PIC) Ledger() *explore.Ledger { return s.led }

func (s *PIC) Sample(c *Cluster) []int {
	s.Strat.Reset() // cumulative novelty is judged within a cluster
	if s.led == nil {
		s.led = explore.NewLedger(explore.CostModel{})
	}
	hint := c.Hint()
	th := s.Pred.Threshold()
	w := &explore.Walk{
		Source: explore.Members(len(c.Members), func(i int) (ski.CTI, ski.Schedule) {
			return c.Members[i].CTI, hint
		}),
		Build: func(cand explore.Candidate) *ctgraph.Graph {
			m := c.Members[cand.Payload]
			return s.Builder.Build(m.CTI, m.ProfA, m.ProfB, hint)
		},
		Score: s.Pred,
		Accept: func(cand explore.Candidate, g *ctgraph.Graph, scores []float64) bool {
			return strategy.Select(s.Strat, g, strategy.FromScores(scores, th))
		},
		Batch: s.Batch, Workers: s.Parallel,
		Ledger: s.led, Hooks: s.Hooks,
	}
	var out []int
	for _, cand := range w.Run() {
		out = append(out, cand.Payload)
	}
	return out
}

// Explore dynamically tests one member with the cluster hint plus focused
// single-switch schedules: Snowboard exercises interleavings *of the
// identified data flow* (§7), so the extra schedules yield from the
// write-side thread at varying points and let the read-side thread run —
// exactly the switch structure that can realise the pair. Reports whether
// the planted bug fired.
func Explore(k *kernel.Kernel, m Member, c *Cluster, bugID int32, extraSchedules int, seed uint64) (bool, int, error) {
	return ExploreR(k, m, c, bugID, extraSchedules, seed, nil, nil, nil)
}

// ExploreR is Explore with the fault-injection resilience layer threaded
// through. With res == nil (and any led/hooks) the execution sequence,
// charges and return values are bit-identical to Explore. With a
// resilience layer, each schedule runs through the fault injector and
// retry loop: a schedule whose attempts all fail is skipped-and-logged
// rather than aborting, and after Policy.QuarantineAfter skipped schedules
// the member is abandoned (reported as not hitting the bug). led == nil
// allocates a throwaway ledger; the returned exec count is the executions
// this call performed, including retries.
func ExploreR(k *kernel.Kernel, m Member, c *Cluster, bugID int32, extraSchedules int, seed uint64,
	res *explore.Resilience, led *explore.Ledger, hooks *explore.Hooks) (bool, int, error) {
	return ExploreX(explore.DefaultExecutor(k), m, c, bugID, extraSchedules, seed, res, led, hooks)
}

// ExploreX is ExploreR on an explicit executor, such as a wrapper around
// explore.DefaultExecutor. ExploreR is ExploreX on the interpreter.
func ExploreX(ex explore.Executor, m Member, c *Cluster, bugID int32, extraSchedules int, seed uint64,
	res *explore.Resilience, led *explore.Ledger, hooks *explore.Hooks) (bool, int, error) {

	if led == nil {
		led = explore.NewLedger(explore.CostModel{})
	}
	execs := 0
	failures := 0
	gaveUp := false
	run := func(seq int, sched ski.Schedule) (bool, error) {
		if res == nil {
			out, err := ex.Execute(m.CTI, sched)
			if err != nil {
				return false, fmt.Errorf("%w: %w", explore.ErrExec, err)
			}
			led.Charge(1, 0)
			execs++
			return out.HitBug(bugID), nil
		}
		rep := res.Execute(ex, m.CTI, sched)
		cand := explore.Candidate{Seq: seq, CTI: m.CTI, Sched: sched}
		if rep.Attempts > 1 {
			led.RecordRetries(rep.Attempts - 1)
			hooks.ExecRetriedHook(cand, rep.Attempts-1)
		}
		led.Charge(rep.Attempts, 0)
		execs += rep.Attempts
		if s := rep.BackoffSeconds + rep.PenaltySeconds; s != 0 {
			led.ChargeSeconds(s)
		}
		if rep.Err != nil {
			led.RecordSkips(1)
			hooks.CandidateSkippedHook(cand, rep.Err)
			failures++
			if q := res.Policy.QuarantineAfter; q > 0 && failures >= q {
				gaveUp = true
				led.RecordQuarantines(1)
				hooks.CTIQuarantinedHook(m.CTI)
			}
			return false, nil
		}
		hooks.ScheduleExecutedHook(cand, rep.Res)
		return rep.Res.HitBug(bugID), nil
	}
	hit, err := run(0, c.Hint())
	if err != nil || hit || gaveUp {
		return hit, execs, err
	}
	if extraSchedules > 0 && len(m.ProfA.InstrTrace) == 0 {
		return false, execs, fmt.Errorf("%w: CTI %d", ErrEmptyTrace, m.CTI.ID)
	}
	rng := xrand.New(seed)
	for i := 0; i < extraSchedules; i++ {
		ref := m.ProfA.InstrTrace[rng.Intn(len(m.ProfA.InstrTrace))]
		hit, err = run(i+1, ski.Schedule{Hints: []ski.Hint{{Thread: 0, Ref: ref}}})
		if err != nil || hit || gaveUp {
			return hit, execs, err
		}
	}
	return false, execs, nil
}

// TrialResult summarises one sampling experiment over a buggy cluster.
type TrialResult struct {
	Sampler      string
	BugFindProb  float64 // fraction of trials whose sampled set finds the bug
	SamplingRate float64 // mean fraction of the cluster executed
	MeanExecuted float64 // mean CTIs executed per trial
}

// RunTrials repeats the sampling experiment: in each trial the sampler
// picks exemplars from the buggy cluster; the trial is bug-finding when at
// least one sampled member triggers the bug under exploration. triggering
// must hold the ground truth per member (precomputed by the caller via
// Explore, so trials do not re-execute).
func RunTrials(c *Cluster, s Sampler, triggering []bool, trials int) TrialResult {
	res := TrialResult{Sampler: s.Name()}
	if len(c.Members) == 0 || trials <= 0 {
		return res
	}
	finds, sampled := 0, 0
	for t := 0; t < trials; t++ {
		idx := s.Sample(c)
		sampled += len(idx)
		for _, i := range idx {
			if triggering[i] {
				finds++
				break
			}
		}
	}
	res.BugFindProb = float64(finds) / float64(trials)
	res.MeanExecuted = float64(sampled) / float64(trials)
	res.SamplingRate = res.MeanExecuted / float64(len(c.Members))
	return res
}

// DF samples members by the §6 data-flow prediction extension: the model
// scores, per member, the probability that the cluster's INS-PAIR flow is
// actually realised under the synthetic hint, and the sampler keeps
// members above a threshold. Compared to SB-PIC's coverage-novelty
// selection, flow prediction targets the cluster's semantics directly —
// the paper suggests exactly this task to cut reproduction cost further.
type DF struct {
	Builder   *ctgraph.Builder
	Model     FlowScorer
	Threshold float64
}

// FlowScorer is the data-flow prediction interface (satisfied by
// pic.Model+TokenCache via a small adapter in the caller).
type FlowScorer interface {
	ScoreFlows(g *ctgraph.Graph) []float64
}

// NewDF creates the SB-DF sampler.
func NewDF(b *ctgraph.Builder, model FlowScorer, threshold float64) *DF {
	if threshold <= 0 {
		threshold = 0.5
	}
	return &DF{Builder: b, Model: model, Threshold: threshold}
}

func (s *DF) Name() string { return "SB-DF" }

func (s *DF) Sample(c *Cluster) []int {
	var out []int
	for i, m := range c.Members {
		g := s.Builder.Build(m.CTI, m.ProfA, m.ProfB, c.Hint())
		probs := s.Model.ScoreFlows(g)
		// Find the InterDF edge matching the cluster's pair.
		best := -1.0
		for row, ei := range g.InterDFEdges() {
			e := g.Edges[ei]
			if g.Vertices[e.From].Block == c.Key.WriteRef.Block &&
				g.Vertices[e.To].Block == c.Key.ReadRef.Block {
				if probs[row] > best {
					best = probs[row]
				}
			}
		}
		if best >= s.Threshold {
			out = append(out, i)
		}
	}
	return out
}
