package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// endToEnd lists the metrics a --trace 0 run reports, in README order.
// fail_frac is reported as the result's failed/attempted pair (it is 0
// on a correct build, so it carries no regression bound).
var endToEnd = []string{
	"setup_s", "ctis_per_s", "p50_ms", "p99_ms", "max_rps", "alloc_mb", "peak_heap_mb",
}

// perLayer lists the metrics a --trace 1 run reports, grouped by module.
var perLayer = []string{
	"campaign.profile_s", "campaign.plan_s", "campaign.execute_s", "campaign.fold_s", "campaign.exec_util",
	"syz.profile_busy_s", "syz.stis",
	"ski.exec_busy_s", "ski.execs", "ski.us_per_exec",
	"race.detect_busy_s", "race.races",
	"ctgraph.base_busy_s", "ctgraph.bases", "ctgraph.graph_busy_s", "ctgraph.graphs",
	"pic.ctx_busy_s", "pic.score_busy_s", "pic.graphs_scored", "pic.us_per_graph", "explore.scored_useful_frac",
	"strategy.select_busy_s", "strategy.accept_frac",
	"stream.label_busy_s", "stream.examples", "stream.deduped",
	"trainer.round_busy_s", "trainer.rounds", "trainer.round_max_ms", "pic.train_steps",
	"serve.svr_p50_ms", "serve.svr_p99_ms", "serve.wire_ms", "serve.mean_batch",
	"serve.station_hit_frac", "serve.ctx_cache_hit_frac", "serve.shed", "serve.expired",
	"load.gen_lag_ms", "load.offered_rps", "load.achieved_rps",
	"share.campaign", "share.syz", "share.ski", "share.race", "share.ctgraph", "share.pic",
	"share.strategy", "share.stream", "share.trainer",
	"trace.other_s", "trace.overhead_frac",
}

// unitOf derives a metric's unit from its name.
func unitOf(name string) string {
	switch {
	case name == "ctis_per_s" || strings.HasSuffix(name, "_rps"):
		return "1/s"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasPrefix(name, "ski.us_") || strings.HasPrefix(name, "pic.us_"):
		return "us"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_frac") || strings.HasSuffix(name, "_util") ||
		strings.HasPrefix(name, "share."):
		return "ratio"
	}
	return "count"
}

// median returns the middle value (mean of the two middles); 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailQuantile averages the order statistics whose ranks fall within w
// of the q-quantile; with too few samples for a band it is quantile.
func tailQuantile(xs []float64, q, w float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := int((q-w)*float64(len(s))), int((q+w)*float64(len(s)))
	if lo < 0 || hi >= len(s) || hi <= lo {
		return quantile(xs, q)
	}
	sum := 0.0
	for _, x := range s[lo : hi+1] {
		sum += x
	}
	return sum / float64(hi+1-lo)
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// memWindow measures a timed window's allocation volume and peak live
// heap: the largest heap the garbage collector marked live, sampled every
// few milliseconds from a runtime gauge that needs no stop-the-world. The
// live heap, unlike the heap between collections, does not depend on
// where collections happen to fall. takePeak splits the window into
// units, so a batch workload reports its typical unit's peak rather than
// its largest unit's.
type memWindow struct {
	alloc0 uint64
	peak   atomic.Uint64 // bytes; the largest live heap since the last takePeak
	stop   chan struct{}
	done   chan struct{}
}

const heapMetric = "/gc/heap/live:bytes"

func startMemWindow() *memWindow {
	runtime.GC() // set-up garbage must not count toward the window's peak
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	w := &memWindow{alloc0: st.TotalAlloc, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			v := sample[0].Value.Uint64()
			for cur := w.peak.Load(); v > cur && !w.peak.CompareAndSwap(cur, v); cur = w.peak.Load() {
			}
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// takePeak returns the largest live heap, in MB, since the window opened
// or since the last takePeak.
func (w *memWindow) takePeak() float64 { return float64(w.peak.Swap(0)) / (1 << 20) }

// finish stops the sampler and returns the MB allocated in the window.
func (w *memWindow) finish() float64 {
	close(w.stop)
	<-w.done
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.TotalAlloc-w.alloc0) / (1 << 20)
}
