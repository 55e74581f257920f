package fleet

import (
	"context"
	"fmt"
	"testing"

	"snowcat/internal/kernel"
	"snowcat/internal/pic"
	"snowcat/internal/serve"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
)

// The fleet scaling benchmark measures the capacity effect sharding buys
// on the CTI-station hot path. The working set is 32 CTIs accessed
// cyclically; each shard's station holds 20. One shard thrashes — every
// request rebuilds profiles and the base graph (~220µs on the reference
// box) — while at 2 and 4 shards each shard's ring partition (17 and 11
// CTIs at most) fits its station, so steady state is all hits (~40µs).
// The host has one core, so the ≥2.5× aggregate-throughput criterion in
// BENCH_fleet.json is met purely by the cache-capacity effect, not CPU
// parallelism — the honest regime for this repo's CI hardware (see
// EXPERIMENTS.md).
const (
	benchCTIs        = 32
	benchStationSize = 20
	benchOfferedRPS  = 20000.0
	benchClients     = 128
)

type fleetBench struct {
	k      *kernel.Kernel
	m      *pic.Model
	tc     *pic.TokenCache
	ctis   []ski.CTI
	scheds [][]ski.Schedule
}

func newFleetBench(b *testing.B) *fleetBench {
	b.Helper()
	k := kernel.Generate(kernel.SmallConfig(5001))
	m := pic.New(pic.Config{Dim: 6, Layers: 1, Seed: 5002})
	fb := &fleetBench{k: k, m: m, tc: pic.NewTokenCache(k, m.Vocab)}
	gen := syz.NewGenerator(k, 5003)
	for i := 0; i < benchCTIs; i++ {
		a, bb := gen.Generate(), gen.Generate()
		pa, err := syz.Run(k, a)
		if err != nil {
			b.Fatal(err)
		}
		pb, err := syz.Run(k, bb)
		if err != nil {
			b.Fatal(err)
		}
		fb.ctis = append(fb.ctis, ski.CTI{ID: int64(i), A: a, B: bb})
		fb.scheds = append(fb.scheds, []ski.Schedule{ski.NewSampler(pa, pb, uint64(i)).Next()})
	}
	return fb
}

// BenchmarkFleetScaling drives the same open-loop load (Poisson arrivals,
// 20k predicts/s offered, 128 client slots) at fleets of 1, 2 and 4
// shards and reports achieved aggregate throughput plus exact latency
// percentiles. One op is one PredictCTI request. `make bench-fleet`
// snapshots the curve to BENCH_fleet.json and derives the 4-vs-1 scaling
// factor the acceptance criterion pins at ≥ 2.5×.
func BenchmarkFleetScaling(b *testing.B) {
	fb := newFleetBench(b)
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d/clients=%d", shards, benchClients), func(b *testing.B) {
			f, err := New(fb.k, fb.m, fb.tc, Config{
				Shards: shards, Serve: serve.Config{StationSize: benchStationSize, Sync: true},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			ring := f.Ring()
			shardOf := func(i int) int { return ring.Shard(fb.ctis[i%benchCTIs].ID) }
			do := func(i int) error {
				idx := i % benchCTIs
				_, err := f.Server(shardOf(i)).PredictCTI(
					context.Background(), fb.ctis[idx], fb.scheds[idx], serve.Request{Wait: true})
				return err
			}

			b.ResetTimer()
			res, err := RunLoadgen(LoadgenConfig{
				Rate: benchOfferedRPS, Requests: b.N, Clients: benchClients, Seed: 7,
			}, shards, shardOf, do)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if res.Errors > 0 {
				b.Fatalf("%d of %d requests failed", res.Errors, res.Requests)
			}

			var hits, misses uint64
			for _, st := range f.Stats() {
				hits += st.StationHits
				misses += st.StationMisses
			}
			b.ReportMetric(res.AchievedRPS, "rps")
			b.ReportMetric(float64(res.Aggregate.P50)/1e3, "p50-us")
			b.ReportMetric(float64(res.Aggregate.P99)/1e3, "p99-us")
			if hits+misses > 0 {
				b.ReportMetric(float64(hits)/float64(hits+misses), "hit-rate")
			}
		})
	}
}
