package serve

import (
	"math/bits"
	"sync/atomic"
)

// latBuckets is the latency histogram resolution: 4 sub-buckets per
// power-of-two octave of nanoseconds. 256 buckets span 1ns..~4600s with
// ~19% worst-case quantile error — plenty for p50/p90/p99 on a serving
// path whose latencies differ by octaves, and cheap enough to bump from
// every request goroutine.
const latBuckets = 64 * 4

// latBucket maps a latency in nanoseconds onto its histogram bucket.
func latBucket(ns int64) int {
	if ns < 1 {
		ns = 1
	}
	exp := bits.Len64(uint64(ns)) - 1 // floor(log2 ns)
	sub := 0
	if exp >= 2 {
		sub = int(uint64(ns)>>(uint(exp)-2)) & 3 // top-2 mantissa bits
	}
	b := exp*4 + sub
	if b >= latBuckets {
		b = latBuckets - 1
	}
	return b
}

// latValue returns the representative latency (bucket midpoint, ns) of a
// histogram bucket — the inverse of latBucket up to quantisation.
func latValue(b int) float64 {
	exp := b / 4
	sub := b % 4
	lo := float64(uint64(1) << uint(exp))
	step := lo / 4
	return lo + step*float64(sub) + step/2
}

// latHist is a fixed-size lock-free latency histogram.
type latHist struct {
	counts [latBuckets]atomic.Uint64
	total  atomic.Uint64
}

// observe records one latency sample.
func (h *latHist) observe(ns int64) {
	h.counts[latBucket(ns)].Add(1)
	h.total.Add(1)
}

// quantiles returns the given quantiles (0..1) in microseconds from one
// consistent-enough scan (concurrent observes may skew a sample by one
// count; fine for monitoring). With no samples, all results are 0.
func (h *latHist) quantiles(qs ...float64) []float64 {
	var counts [latBuckets]uint64
	total := uint64(0)
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	out := make([]float64, len(qs))
	if total == 0 {
		return out
	}
	for j, q := range qs {
		rank := uint64(q * float64(total))
		if rank >= total {
			rank = total - 1
		}
		cum := uint64(0)
		for i := range counts {
			cum += counts[i]
			if cum > rank {
				out[j] = latValue(i) / 1e3 // ns -> us
				break
			}
		}
	}
	return out
}

// stats holds the server's ledger-style counters. Admission-side counters
// are bumped from request goroutines and scoring-side counters from the
// dispatcher (or a Sync caller), so everything is atomic; StatsSnapshot
// flattens them for /statsz and tests.
type stats struct {
	requests atomic.Uint64 // predict requests admitted (before validation)
	graphs   atomic.Uint64 // graphs carried by admitted requests
	batches  atomic.Uint64 // requests scored, one PredictAllCtx call each
	batched  atomic.Uint64 // graphs scored across those requests
	shed     atomic.Uint64 // requests rejected by admission control (queue full)
	expired  atomic.Uint64 // requests whose deadline passed before scoring
	errors   atomic.Uint64 // requests failed for any other reason
	swaps    atomic.Uint64 // model hot-swaps completed
	lat      latHist       // successful-request latency, admission to reply
}

// StatsSnapshot is a point-in-time copy of every serving counter, the
// /statsz payload. Batches counts scored requests and MeanBatch is graphs
// per scored request; CacheHits/Misses/Evictions mirror the BaseContext
// LRU, which a scored request consults at most once;
// LatencyP50US/P90US/P99US summarise the latency histogram of requests
// that scored successfully (admission to reply, log-bucketed to ~19%);
// ErrorRate and ShedRate are fractions of admitted requests that failed
// (for any reason: shed, expired, or errored) or were shed specifically.
type StatsSnapshot struct {
	Requests       uint64            `json:"requests"`
	Graphs         uint64            `json:"graphs"`
	Batches        uint64            `json:"batches"`
	BatchedGraphs  uint64            `json:"batched_graphs"`
	MeanBatch      float64           `json:"mean_batch"`
	Shed           uint64            `json:"shed"`
	Expired        uint64            `json:"expired"`
	Errors         uint64            `json:"errors"`
	Swaps          uint64            `json:"swaps"`
	LatencyP50US   float64           `json:"latency_p50_us"`
	LatencyP90US   float64           `json:"latency_p90_us"`
	LatencyP99US   float64           `json:"latency_p99_us"`
	ErrorRate      float64           `json:"error_rate"`
	ShedRate       float64           `json:"shed_rate"`
	CacheHits      uint64            `json:"cache_hits"`
	CacheMisses    uint64            `json:"cache_misses"`
	CacheEvictions uint64            `json:"cache_evictions"`
	CacheLen       int               `json:"cache_len"`
	QueueDepth     int               `json:"queue_depth"`
	StationHits    uint64            `json:"station_hits"`
	StationMisses  uint64            `json:"station_misses"`
	ServedByModel  map[string]uint64 `json:"served_by_model"`
}

// snapshot flattens the counters; the server layers in cache, queue and
// per-version numbers.
func (s *stats) snapshot() StatsSnapshot {
	out := StatsSnapshot{
		Requests:      s.requests.Load(),
		Graphs:        s.graphs.Load(),
		Batches:       s.batches.Load(),
		BatchedGraphs: s.batched.Load(),
		Shed:          s.shed.Load(),
		Expired:       s.expired.Load(),
		Errors:        s.errors.Load(),
		Swaps:         s.swaps.Load(),
	}
	if out.Batches > 0 {
		out.MeanBatch = float64(out.BatchedGraphs) / float64(out.Batches)
	}
	q := s.lat.quantiles(0.50, 0.90, 0.99)
	out.LatencyP50US, out.LatencyP90US, out.LatencyP99US = q[0], q[1], q[2]
	if out.Requests > 0 {
		out.ErrorRate = float64(out.Shed+out.Expired+out.Errors) / float64(out.Requests)
		out.ShedRate = float64(out.Shed) / float64(out.Requests)
	}
	return out
}
