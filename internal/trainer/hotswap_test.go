package trainer

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"snowcat/internal/ctgraph"
	"snowcat/internal/dataset"
	"snowcat/internal/pic"
	"snowcat/internal/serve"
	"snowcat/internal/ski"
	"snowcat/internal/stream"
)

// recordingPublisher snapshots each published version's expected scores
// over a fixed probe set *before* the version goes live, then forwards to
// the server. The loadgen attributes every response to exactly one version
// by matching its scores against these snapshots.
type recordingPublisher struct {
	next   Publisher
	probes []*ctgraph.Graph
	mu     sync.Mutex
	scores map[string][][]float64 // version -> probe scores
	thresh map[string]float64
}

func (p *recordingPublisher) record(version string, m *pic.Model, tc *pic.TokenCache) {
	sc := make([][]float64, len(p.probes))
	for i, g := range p.probes {
		sc[i] = m.Predict(g, tc)
	}
	p.mu.Lock()
	p.scores[version] = sc
	p.thresh[version] = m.Threshold
	p.mu.Unlock()
}

func (p *recordingPublisher) Publish(version string, m *pic.Model, tc *pic.TokenCache) error {
	p.record(version, m, tc)
	return p.next.Publish(version, m, tc)
}

func (p *recordingPublisher) lookup(version string) ([][]float64, float64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	sc, ok := p.scores[version]
	return sc, p.thresh[version], ok
}

// The hot-swap proof: a background trainer publishes a rolling sequence
// of retrained versions, through PublishTo, into a live queued server
// while an open-loop load generator drives prediction traffic at it. The
// loadgen must observe zero dropped responses, and every response must be
// attributable to exactly one registered version — its scores and
// threshold match that version's pre-publish snapshot, never a mix.
func TestHotSwapUnderFleetLoad(t *testing.T) {
	k, m, tc := learnFixture(t, 91)
	reg := serve.NewRegistry()
	if err := reg.Load("v1", m, tc); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Activate("v1"); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(reg, serve.Config{})
	defer srv.Close()

	// Probe graphs and trainer outcomes ride the same CTIs.
	col := dataset.NewCollector(k, 92)
	type ctiRig struct {
		cti    ski.CTI
		base   *ctgraph.Base
		scheds []ski.Schedule
		res    []*ski.Result
	}
	var rigs []ctiRig
	var probes []*ctgraph.Graph
	for i := 0; i < 6; i++ {
		cti, pa, pb, err := col.NewCTI(int64(i))
		if err != nil {
			t.Fatal(err)
		}
		rig := ctiRig{cti: cti, base: col.Builder.BuildBase(cti, pa, pb)}
		sampler := ski.NewSampler(pa, pb, 93+uint64(i))
		seen := map[string]bool{}
		for j := 0; j < 4; j++ {
			sched, ok := sampler.NextUnique(seen, 50)
			if !ok {
				break
			}
			res, err := ski.Execute(k, cti, sched)
			if err != nil {
				t.Fatal(err)
			}
			rig.scheds = append(rig.scheds, sched)
			rig.res = append(rig.res, res)
			probes = append(probes, rig.base.WithSchedule(sched))
		}
		rigs = append(rigs, rig)
	}
	if len(probes) < 8 {
		t.Fatalf("fixture too small: %d probes", len(probes))
	}

	pub := &recordingPublisher{
		next: PublishTo(srv), probes: probes,
		scores: make(map[string][][]float64),
		thresh: make(map[string]float64),
	}
	pub.record("v1", m, tc)

	bus := stream.New(col, stream.Config{})
	tr, err := New(m, tc, bus, pub, Config{RetrainEvery: 1, MinNew: 1})
	if err != nil {
		t.Fatal(err)
	}

	// The background trainer: one round per rig, publishing v2..v7 while
	// the loadgen below is in flight.
	trainerErr := make(chan error, 1)
	go func() {
		defer close(trainerErr)
		for i, rig := range rigs {
			for j := range rig.scheds {
				bus.Publish(rig.cti, rig.scheds[j], rig.res[j])
			}
			if _, err := tr.Round(float64(i + 1)); err != nil {
				trainerErr <- err
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()

	// The foreground load: open-loop Poisson arrivals, each response
	// checked against the version snapshots.
	var seen sync.Map // version -> struct{}
	result, err := serve.RunLoadgen(
		serve.LoadgenConfig{Rate: 4000, Requests: 800, Clients: 16, Seed: 94},
		func(i int) error {
			idx := i % len(probes)
			resp, err := srv.Predict(context.Background(), &serve.Request{
				Graphs: []*ctgraph.Graph{probes[idx]}, Wait: true,
			})
			if err != nil {
				return err
			}
			want, th, ok := pub.lookup(resp.Model)
			if !ok {
				return fmt.Errorf("response from unregistered version %q", resp.Model)
			}
			if resp.Threshold != th {
				return fmt.Errorf("version %q threshold %v, want %v", resp.Model, resp.Threshold, th)
			}
			if !reflect.DeepEqual(resp.Scores[0], want[idx]) {
				return fmt.Errorf("version %q scores do not match its snapshot", resp.Model)
			}
			seen.Store(resp.Model, struct{}{})
			return nil
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-trainerErr; err != nil {
		t.Fatal(err)
	}

	if result.Errors != 0 {
		t.Fatalf("loadgen saw %d errors in %d requests", result.Errors, result.Requests)
	}
	if result.Requests != 800 {
		t.Fatalf("loadgen completed %d of 800 requests", result.Requests)
	}
	if v := tr.Versions(); len(v) < 3 {
		t.Fatalf("trainer published %d versions, want >= 3 beyond v1: %v", len(v), v)
	}
	if v := srv.Registry().Active().Version; v != fmt.Sprintf("v%d", len(rigs)+1) {
		t.Fatalf("server finished on %s", v)
	}
	var versions []string
	seen.Range(func(key, _ any) bool {
		versions = append(versions, key.(string))
		return true
	})
	if len(versions) < 2 {
		t.Fatalf("traffic observed only versions %v; swap never happened under load", versions)
	}
	t.Logf("loadgen: %d requests, 0 errors, versions observed under load: %v", result.Requests, versions)
}
