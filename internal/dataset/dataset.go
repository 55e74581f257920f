// Package dataset collects labelled CT-graph datasets for PIC training and
// evaluation, reproducing the §5.1.1 pipeline: generate CTIs (random pairs
// of STIs), explore a number of unique interleavings per CTI with the SKI
// sampler, dynamically execute each concurrent test, and label the CT
// graph's vertices with the observed concurrent block coverage. Splits are
// by CTI (not by example), exactly as the paper divides its 44,686 CTIs
// into train/validation/evaluation populations.
package dataset

import (
	"fmt"

	"snowcat/internal/cfg"
	"snowcat/internal/ctgraph"
	"snowcat/internal/explore"
	"snowcat/internal/kernel"
	"snowcat/internal/parallel"
	"snowcat/internal/pic"
	"snowcat/internal/race"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
	"snowcat/internal/xrand"
)

// Config controls dataset collection.
type Config struct {
	Seed                uint64
	NumCTIs             int
	InterleavingsPerCTI int
	// IRQsPerSchedule adds this many random interrupt injections to every
	// sampled schedule (§6 extension; requires a kernel generated with
	// NumIRQs > 0).
	IRQsPerSchedule int
	// Parallel bounds the collection worker pool; <= 0 selects GOMAXPROCS.
	// The collected dataset is identical for every worker count.
	Parallel int
}

// CTIGroup is all collected data for one CTI: its sequential profiles and
// one labelled example per explored interleaving.
type CTIGroup struct {
	CTI          ski.CTI
	ProfA, ProfB *syz.Profile
	Examples     []*pic.Example
}

// Dataset is a collection of CTI groups.
type Dataset struct {
	Groups []*CTIGroup
}

// NumExamples counts labelled graphs across all groups.
func (d *Dataset) NumExamples() int {
	n := 0
	for _, g := range d.Groups {
		n += len(g.Examples)
	}
	return n
}

// Flatten returns all examples in group order.
func (d *Dataset) Flatten() []*pic.Example {
	out := make([]*pic.Example, 0, d.NumExamples())
	for _, g := range d.Groups {
		out = append(out, g.Examples...)
	}
	return out
}

// SplitByCTI partitions the dataset's CTI groups into train/valid/eval
// subsets with the given fractions (eval gets the rest). The shuffle is
// deterministic in seed.
func (d *Dataset) SplitByCTI(trainFrac, validFrac float64, seed uint64) (train, valid, eval *Dataset) {
	rng := xrand.New(seed)
	order := rng.Perm(len(d.Groups))
	nTrain := int(trainFrac * float64(len(d.Groups)))
	nValid := int(validFrac * float64(len(d.Groups)))
	train, valid, eval = &Dataset{}, &Dataset{}, &Dataset{}
	for i, gi := range order {
		g := d.Groups[gi]
		switch {
		case i < nTrain:
			train.Groups = append(train.Groups, g)
		case i < nTrain+nValid:
			valid.Groups = append(valid.Groups, g)
		default:
			eval.Groups = append(eval.Groups, g)
		}
	}
	return train, valid, eval
}

// PositiveURBRate returns the fraction of URB vertices labelled covered
// across the dataset — the bias used by the BiasedCoin baseline (§5.2.1;
// 1.1% in the paper's data).
func (d *Dataset) PositiveURBRate() float64 {
	pos, total := 0, 0
	for _, g := range d.Groups {
		for _, ex := range g.Examples {
			for i, v := range ex.G.Vertices {
				if v.Type == ctgraph.URB {
					total++
					if ex.Y[i] {
						pos++
					}
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(pos) / float64(total)
}

// Collector drives dataset collection for one kernel.
type Collector struct {
	K       *kernel.Kernel
	Builder *ctgraph.Builder
	Gen     *syz.Generator
	// Exec runs the labelling executions; nil selects
	// explore.DefaultExecutor over the collector's kernel.
	Exec explore.Executor
}

// NewCollector wires a collector for kernel k; the CFG is built here.
func NewCollector(k *kernel.Kernel, seed uint64) *Collector {
	return &Collector{
		K:       k,
		Builder: ctgraph.NewBuilder(k, cfg.Build(k)),
		Gen:     syz.NewGenerator(k, seed),
	}
}

// NewCTI generates a fresh random CTI with its sequential profiles.
func (c *Collector) NewCTI(id int64) (ski.CTI, *syz.Profile, *syz.Profile, error) {
	a, b := c.Gen.Generate(), c.Gen.Generate()
	cti := ski.CTI{ID: id, A: a, B: b}
	pa, err := syz.Run(c.K, a)
	if err != nil {
		return cti, nil, nil, fmt.Errorf("dataset: profiling A: %w", err)
	}
	pb, err := syz.Run(c.K, b)
	if err != nil {
		return cti, nil, nil, fmt.Errorf("dataset: profiling B: %w", err)
	}
	return cti, pa, pb, nil
}

// LabelOne executes (cti, sched) dynamically and returns the labelled
// example plus the raw execution result. Both the coverage labels and the
// §6 data-flow labels are filled. Callers labelling many schedules of one
// CTI should build the graph skeleton once and use LabelWithBase.
func (c *Collector) LabelOne(cti ski.CTI, pa, pb *syz.Profile, sched ski.Schedule) (*pic.Example, *ski.Result, error) {
	return c.LabelWithBase(c.Builder.BuildBase(cti, pa, pb), sched)
}

// LabelWithBase is LabelOne over a prebuilt schedule-independent skeleton,
// amortising the per-CTI graph work across the CTI's schedules. The
// labelled example is identical to LabelOne's.
func (c *Collector) LabelWithBase(base *ctgraph.Base, sched ski.Schedule) (*pic.Example, *ski.Result, error) {
	ex := c.Exec
	if ex == nil {
		ex = explore.DefaultExecutor(c.K)
	}
	res, err := ex.Execute(base.CTI, sched)
	if err != nil {
		return nil, nil, err
	}
	g := base.WithSchedule(sched)
	return &pic.Example{
		G:     g,
		Y:     ctgraph.Labels(g, res),
		YFlow: ctgraph.FlowLabels(g, res, race.DefaultWindow),
	}, res, nil
}

// LabelResult labels an already-executed result without re-running it:
// the streaming ingest path, where the execution happened inside the
// exploration pipeline and only the labelling remains. The example is
// identical to what LabelWithBase would have produced for the same
// (cti, sched) — the executors are deterministic — minus the 2.8 s
// execution charge.
func (c *Collector) LabelResult(base *ctgraph.Base, sched ski.Schedule, res *ski.Result) *pic.Example {
	g := base.WithSchedule(sched)
	return &pic.Example{
		G:     g,
		Y:     ctgraph.Labels(g, res),
		YFlow: ctgraph.FlowLabels(g, res, race.DefaultWindow),
	}
}

// Collect gathers a dataset per cfg: cfg.NumCTIs random CTIs, up to
// cfg.InterleavingsPerCTI unique interleavings each, every one dynamically
// executed and labelled.
//
// The canonical random stream — STI pairs from the collector's generator
// and one sampler seed per CTI — is drawn sequentially up front; the
// expensive per-CTI work (profiling, sampling, execution, labelling) then
// fans out to cfg.Parallel workers. CTIs share nothing, so the dataset is
// identical to the sequential collection for every worker count.
func (c *Collector) Collect(cfg Config) (*Dataset, error) {
	rng := xrand.New(cfg.Seed)
	type ctiJob struct {
		cti  ski.CTI
		seed uint64 // sampler seed
	}
	jobs := make([]ctiJob, cfg.NumCTIs)
	for i := range jobs {
		a, b := c.Gen.Generate(), c.Gen.Generate()
		jobs[i] = ctiJob{cti: ski.CTI{ID: int64(i), A: a, B: b}, seed: rng.Uint64()}
	}
	groups, err := parallel.Map(parallel.Workers(cfg.Parallel), cfg.NumCTIs, func(i int) (*CTIGroup, error) {
		cti := jobs[i].cti
		pa, err := syz.Run(c.K, cti.A)
		if err != nil {
			return nil, fmt.Errorf("dataset: profiling A: %w", err)
		}
		pb, err := syz.Run(c.K, cti.B)
		if err != nil {
			return nil, fmt.Errorf("dataset: profiling B: %w", err)
		}
		group := &CTIGroup{CTI: cti, ProfA: pa, ProfB: pb}
		base := c.Builder.BuildBase(cti, pa, pb)
		sampler := ski.NewSampler(pa, pb, jobs[i].seed)
		seen := make(map[string]bool)
		for j := 0; j < cfg.InterleavingsPerCTI; j++ {
			var sched ski.Schedule
			if cfg.IRQsPerSchedule > 0 {
				sched = sampler.NextWithIRQs(cfg.IRQsPerSchedule, len(c.K.IRQs))
				if seen[sched.Key()] {
					continue
				}
				seen[sched.Key()] = true
			} else {
				var ok bool
				sched, ok = sampler.NextUnique(seen, 50)
				if !ok {
					break // interleaving space exhausted for this CTI
				}
			}
			ex, _, err := c.LabelWithBase(base, sched)
			if err != nil {
				return nil, fmt.Errorf("dataset: cti %d schedule %d: %w", i, j, err)
			}
			group.Examples = append(group.Examples, ex)
		}
		return group, nil
	})
	if err != nil {
		return nil, err
	}
	return &Dataset{Groups: groups}, nil
}
