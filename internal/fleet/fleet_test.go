package fleet

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"snowcat/internal/campaign"
	"snowcat/internal/cfg"
	"snowcat/internal/ctgraph"
	"snowcat/internal/faults"
	"snowcat/internal/kernel"
	"snowcat/internal/mlpct"
	"snowcat/internal/pic"
	"snowcat/internal/predictor"
	"snowcat/internal/razzer"
	"snowcat/internal/serve"
	"snowcat/internal/ski"
	"snowcat/internal/snowboard"
	"snowcat/internal/strategy"
	"snowcat/internal/syz"
)

// tinyModel builds an untrained model over k's vocabulary — the strictest
// equivalence fixture: random weights, so any FP reordering would show.
func tinyModel(k *kernel.Kernel, seed uint64) (*pic.Model, *pic.TokenCache) {
	m := pic.New(pic.Config{Dim: 12, Layers: 2, LR: 3e-3, Epochs: 1, Seed: seed, PosWeight: 8})
	return m, pic.NewTokenCache(k, m.Vocab)
}

// campaignConf is the shared campaign shape for the fleet pins; the
// caller supplies a fresh strategy and predictor per run (the strategy is
// stateful across CTIs, any residue would change selections).
func campaignConf() campaign.Config {
	return campaign.Config{
		Name: "MLPCT", Seed: 11, NumCTIs: 6,
		Opts: mlpct.Options{ExecBudget: 6, InferenceCap: 40, Batch: 4},
		Cost: campaign.PaperCosts(),
	}
}

// directHistory runs the single-process reference campaign.
func directHistory(t *testing.T, k *kernel.Kernel, m *pic.Model, tc *pic.TokenCache) *campaign.History {
	t.Helper()
	r := campaign.NewRunner(k)
	conf := campaignConf()
	conf.Strat = strategy.NewS1()
	conf.Pred = predictor.NewPIC(m, tc, "PIC")
	want, err := r.Run(conf)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestCoordinatorMatchesDirectAtAnyShardCount pins the tentpole
// acceptance criterion: a fleet campaign's History is DeepEqual to the
// single-process Runner.Run at shard counts 1, 2 and 4 (run under -race
// by `make test`), and at 4 shards the scoring traffic actually spreads
// over the ring partition.
func TestCoordinatorMatchesDirectAtAnyShardCount(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(7))
	m, tc := tinyModel(k, 8)
	want := directHistory(t, k, m, tc)
	r := campaign.NewRunner(k)

	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			f, err := New(k, m, tc, Config{Shards: shards, Serve: serve.Config{Sync: true}})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			conf := campaignConf()
			conf.Strat = strategy.NewS1()
			conf.Pred = f.Client("PIC")
			co := &Coordinator{Fleet: f, Runner: r, Campaign: conf, RoundSize: 2}
			got, err := co.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("fleet campaign diverged from single-process run\nwant: %+v\ngot:  %+v", want, got)
			}

			// Routing check: requests land on the shards the ring says own
			// the stream's CTI IDs — more than one shard at shards=4.
			owners := map[int]bool{}
			for id := int64(0); id < int64(conf.NumCTIs); id++ {
				owners[f.Ring().Shard(id)] = true
			}
			served := 0
			for s, st := range f.Stats() {
				if st.Requests > 0 {
					if !owners[s] {
						t.Fatalf("shard %d served requests but owns no stream CTI", s)
					}
					served++
				}
			}
			if served != len(owners) {
				t.Fatalf("%d shards served requests, want %d (ring owners of the stream)", served, len(owners))
			}
			if shards == 4 && served < 2 {
				t.Fatalf("4-shard fleet funnelled all traffic to %d shard(s)", served)
			}
		})
	}
}

// TestCoordinatorSurvivesChaosShardLoss pins the failure-model criterion:
// with a chaos injector deterministically killing shards at round starts,
// the coordinator restarts them, replays the rounds, and still produces
// the exact single-process History.
func TestCoordinatorSurvivesChaosShardLoss(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(7))
	m, tc := tinyModel(k, 8)
	want := directHistory(t, k, m, tc)
	r := campaign.NewRunner(k)

	const shards = 4
	const chaosSeed, chaosRate = 13, 0.6
	// The chaos schedule is a pure hash, so the test can replay it and
	// prove the run actually lost shards mid-campaign.
	conf := campaignConf()
	oracle := faults.New(chaosSeed, chaosRate)
	rounds := (conf.NumCTIs + 1) / 2 // RoundSize 2
	kills := 0
	for round := 0; round < rounds; round++ {
		for s := 0; s < shards; s++ {
			if oracle.Decide(int64(s), fmt.Sprintf("fleet-round-%d", round), 0) != faults.None {
				kills++
			}
		}
	}
	if kills == 0 {
		t.Fatalf("chaos seed %d rate %v kills no shards; pick a seed that does", chaosSeed, chaosRate)
	}

	f, err := New(k, m, tc, Config{Shards: shards, Serve: serve.Config{Sync: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	conf.Strat = strategy.NewS1()
	conf.Pred = f.Client("PIC")
	co := &Coordinator{
		Fleet: f, Runner: r, Campaign: conf, RoundSize: 2,
		Chaos: faults.New(chaosSeed, chaosRate),
	}
	got, err := co.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chaos-ridden fleet campaign diverged from single-process run (%d shard kills)\nwant: %+v\ngot:  %+v",
			kills, want, got)
	}
}

// TestCoordinatorCheckpointResume pins crash/resume: a run stopped at a
// round boundary (StopAfter, the graceful twin of a coordinator crash)
// leaves a checkpoint from which a fresh coordinator — fresh fleet, fresh
// strategy, fresh explorer — finishes with the uninterrupted History.
func TestCoordinatorCheckpointResume(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(7))
	m, tc := tinyModel(k, 8)
	want := directHistory(t, k, m, tc)
	r := campaign.NewRunner(k)
	path := filepath.Join(t.TempDir(), "campaign.ck")

	newCo := func(f *Fleet) *Coordinator {
		conf := campaignConf()
		conf.Strat = strategy.NewS1()
		conf.Pred = f.Client("PIC")
		return &Coordinator{Fleet: f, Runner: r, Campaign: conf, RoundSize: 2, CheckpointPath: path}
	}

	f1, err := New(k, m, tc, Config{Shards: 2, Serve: serve.Config{Sync: true}})
	if err != nil {
		t.Fatal(err)
	}
	co := newCo(f1)
	co.StopAfter = 1
	if _, err := co.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("StopAfter run: err=%v, want ErrStopped", err)
	}
	f1.Close() // the "crash": every shard's cached state is gone

	// Resume on a brand-new fleet at a different shard count — the
	// checkpoint carries campaign state, not fleet state.
	f2, err := New(k, m, tc, Config{Shards: 4, Serve: serve.Config{Sync: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	got, err := newCo(f2).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed fleet campaign diverged from uninterrupted run\nwant: %+v\ngot:  %+v", want, got)
	}

	// A checkpoint is guarded by campaign identity: resuming it under a
	// different campaign must fail loudly, not restore garbage.
	bad := newCo(f2)
	bad.Campaign.Seed++
	if _, err := bad.Run(); err == nil {
		t.Fatal("resume with mismatched campaign seed succeeded")
	}
	bad = newCo(f2)
	bad.RoundSize = 3
	if _, err := bad.Run(); err == nil {
		t.Fatal("resume with mismatched round size succeeded")
	}
}

// TestCoordinatorConfigRejections covers the config guards.
func TestCoordinatorConfigRejections(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(7))
	m, tc := tinyModel(k, 8)
	f, err := New(k, m, tc, Config{Shards: 1, Serve: serve.Config{Sync: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := campaign.NewRunner(k)

	conf := campaignConf()
	conf.Strat = strategy.NewS1()
	conf.Pred = f.Client("PIC")
	co := &Coordinator{Fleet: f, Runner: r, Campaign: conf, StopAfter: 1}
	if _, err := co.Run(); err == nil {
		t.Fatal("StopAfter without CheckpointPath accepted")
	}
	if _, err := New(k, m, tc, Config{Shards: 0}); err == nil {
		t.Fatal("zero-shard fleet accepted")
	}
}

// TestClientShardDown pins the failure surface: a request routed to a
// killed shard panics with ShardDownError naming the shard, and Restart
// brings it back cold but bit-identical.
func TestClientShardDown(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(7))
	m, tc := tinyModel(k, 8)
	f, err := New(k, m, tc, Config{Shards: 3, Serve: serve.Config{Sync: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	gen := syz.NewGenerator(k, 5)
	a, b := gen.Generate(), gen.Generate()
	pa, err := syz.Run(k, a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := syz.Run(k, b)
	if err != nil {
		t.Fatal(err)
	}
	builder := ctgraph.NewBuilder(k, cfg.Build(k))
	cti := ski.CTI{ID: 42, A: a, B: b}
	base := builder.BuildBase(cti, pa, pb)
	g := base.WithSchedule(ski.NewSampler(pa, pb, 6).Next())

	c := f.Client("")
	if got, want := c.Name(), "fleet(3)"; got != want {
		t.Fatalf("Name() = %q, want %q", got, want)
	}
	owner := f.Ring().Shard(cti.ID)
	want := c.Score(g)

	f.Kill(owner)
	func() {
		defer func() {
			rec := recover()
			down, ok := rec.(ShardDownError)
			if !ok {
				t.Fatalf("recovered %v (%T), want ShardDownError", rec, rec)
			}
			if down.Shard != owner {
				t.Fatalf("ShardDownError names shard %d, want %d", down.Shard, owner)
			}
		}()
		c.Score(g)
	}()

	if err := f.Restart(owner); err != nil {
		t.Fatal(err)
	}
	if got := c.Score(g); !reflect.DeepEqual(got, want) {
		t.Fatal("restarted shard scores diverged from its pre-kill scores")
	}
}

// TestClientRazzerAndSnowboardPinned runs the two non-campaign consumers
// of predictor.Predictor — the Razzer-PIC CTI filter and the Snowboard
// SB-PIC sampler — through the fleet client and pins their outputs to the
// direct in-process predictor.
func TestClientRazzerAndSnowboardPinned(t *testing.T) {
	// The razzer fixture wants a kernel with planted bugs; reuse its seed.
	k := kernel.Generate(kernel.SmallConfig(1))
	m, tc := tinyModel(k, 2)
	direct := predictor.NewPIC(m, tc, "PIC")
	f, err := New(k, m, tc, Config{Shards: 3, Serve: serve.Config{Sync: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fc := f.Client("PIC")

	t.Run("razzer", func(t *testing.T) {
		var targets []razzer.TargetRace
		var scs []int32
		for _, bug := range k.Bugs {
			tr, err := razzer.RaceFromBug(k, bug)
			if err != nil {
				t.Fatal(err)
			}
			targets = append(targets, tr)
			scs = append(scs, bug.ReaderSyscall, bug.WriterSyscall)
		}
		pool := razzer.BuildPool(k, scs, 30, 10, 4)
		finder, err := razzer.NewFinder(k, pool)
		if err != nil {
			t.Fatal(err)
		}
		if len(targets) == 0 {
			t.Fatal("kernel planted no bugs")
		}
		for i, tr := range targets {
			want := finder.FindCTIs(tr, razzer.PICFiltered, direct, 99)
			got := finder.FindCTIs(tr, razzer.PICFiltered, fc, 99)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("target %d: fleet-filtered CTI set diverged from direct (%d vs %d CTIs)",
					i, len(got), len(want))
			}
		}
	})

	t.Run("snowboard", func(t *testing.T) {
		gen := syz.NewGenerator(k, 3)
		var ms []snowboard.Member
		for i := 0; i < 25; i++ {
			a, b := gen.Generate(), gen.Generate()
			pa, err := syz.Run(k, a)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := syz.Run(k, b)
			if err != nil {
				t.Fatal(err)
			}
			ms = append(ms, snowboard.Member{CTI: ski.CTI{ID: int64(i), A: a, B: b}, ProfA: pa, ProfB: pb})
		}
		clusters := snowboard.ClusterCTIs(ms)
		if len(clusters) == 0 {
			t.Fatal("no INS-PAIR clusters")
		}
		b := ctgraph.NewBuilder(k, cfg.Build(k))
		for i, c := range clusters {
			want := snowboard.NewPIC(b, direct, strategy.NewS1()).Sample(c)
			got := snowboard.NewPIC(b, fc, strategy.NewS1()).Sample(c)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cluster %d: fleet-scored SB-PIC sample diverged from direct\ngot  %v\nwant %v", i, got, want)
			}
		}
	})
}

// TestRunLoadgenOpenLoop covers the load generator: exact request count,
// per-shard split, error accounting, monotone percentiles, and arrival
// schedules that reproduce from the seed.
func TestRunLoadgenOpenLoop(t *testing.T) {
	cfg := LoadgenConfig{Rate: 2000, Requests: 200, Clients: 16, Seed: 9}
	shardOf := func(i int) int { return i % 3 }
	do := func(i int) error {
		if i%10 == 0 {
			return errors.New("shed")
		}
		time.Sleep(50 * time.Microsecond)
		return nil
	}
	res, err := RunLoadgen(cfg, 3, shardOf, do)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 200 || res.Aggregate.N != 200 {
		t.Fatalf("requests=%d aggregate.N=%d, want 200", res.Requests, res.Aggregate.N)
	}
	if res.Errors != 20 {
		t.Fatalf("errors=%d, want 20", res.Errors)
	}
	if len(res.PerShard) != 3 {
		t.Fatalf("per-shard buckets: %d, want 3", len(res.PerShard))
	}
	n := 0
	for _, p := range res.PerShard {
		n += p.N
	}
	if n != 200 {
		t.Fatalf("per-shard populations sum to %d, want 200", n)
	}
	a := res.Aggregate
	if a.P50 > a.P90 || a.P90 > a.P99 || a.P99 > a.Max || a.Max <= 0 {
		t.Fatalf("percentiles not monotone: %+v", a)
	}
	if res.AchievedRPS <= 0 || res.OfferedRPS != 2000 {
		t.Fatalf("rates: achieved=%v offered=%v", res.AchievedRPS, res.OfferedRPS)
	}
	if res.String() == "" {
		t.Fatal("empty summary")
	}

	if _, err := RunLoadgen(LoadgenConfig{Rate: 0, Requests: 1}, 1, shardOf, do); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := RunLoadgen(LoadgenConfig{Rate: 1, Requests: 0}, 1, shardOf, do); err == nil {
		t.Fatal("zero request count accepted")
	}
}

// TestCheckpointFileGuards covers the on-disk format guards directly.
func TestCheckpointFileGuards(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck")
	if _, err := LoadCheckpoint(path); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("missing file: err=%v, want ErrNoCheckpoint", err)
	}
	ck := &Checkpoint{Name: "c", Seed: 1, NumCTIs: 2, RoundSize: 2, NextRound: 1}
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "c" || got.Seed != 1 || got.NumCTIs != 2 || got.NextRound != 1 {
		t.Fatalf("round-trip mangled checkpoint: %+v", got)
	}
}

// TestClientGracefulErrors pins the error-returning client surface: a
// request routed to a killed shard comes back as an error wrapping
// ShardDownError — no panic — from every E-suffixed method, and after a
// restart the same calls succeed with scores DeepEqual to pre-kill.
func TestClientGracefulErrors(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(7))
	m, tc := tinyModel(k, 8)
	f, err := New(k, m, tc, Config{Shards: 3, Serve: serve.Config{Sync: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	gen := syz.NewGenerator(k, 5)
	a, b := gen.Generate(), gen.Generate()
	pa, err := syz.Run(k, a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := syz.Run(k, b)
	if err != nil {
		t.Fatal(err)
	}
	builder := ctgraph.NewBuilder(k, cfg.Build(k))
	cti := ski.CTI{ID: 42, A: a, B: b}
	base := builder.BuildBase(cti, pa, pb)
	g := base.WithSchedule(ski.NewSampler(pa, pb, 6).Next())

	c := f.Client("")
	want, err := c.ScoreE(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ThresholdE(); err != nil {
		t.Fatalf("ThresholdE with all shards live: %v", err)
	}

	owner := f.Ring().Shard(cti.ID)
	f.Kill(owner)
	checkDown := func(what string, err error) {
		t.Helper()
		var down ShardDownError
		if !errors.As(err, &down) {
			t.Fatalf("%s error %v does not wrap ShardDownError", what, err)
		}
		if down.Shard != owner {
			t.Fatalf("%s names shard %d, want %d", what, down.Shard, owner)
		}
	}
	_, err = c.ScoreE(g)
	checkDown("ScoreE", err)
	_, err = c.ScoreBatchE([]*ctgraph.Graph{g}, 1)
	checkDown("ScoreBatchE", err)
	checkDown("BeginCTIE", c.BeginCTIE(base))

	// Threshold still answers from a surviving shard…
	if _, err := c.ThresholdE(); err != nil {
		t.Fatalf("ThresholdE with a live shard remaining: %v", err)
	}
	// …and only errors once no shard is live.
	for i := 0; i < f.Shards(); i++ {
		f.Kill(i)
	}
	if _, err := c.ThresholdE(); err == nil {
		t.Fatal("ThresholdE with no live shard returned nil error")
	} else {
		var down ShardDownError
		if !errors.As(err, &down) {
			t.Fatalf("ThresholdE error %v does not wrap ShardDownError", err)
		}
	}

	for i := 0; i < f.Shards(); i++ {
		if err := f.Restart(i); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.ScoreE(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("restarted shard scores diverged from pre-kill scores")
	}
}
