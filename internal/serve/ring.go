package serve

import "sort"

// Ring is a consistent-hash ring over the CTI ID space: it assigns every
// CTI to one of N shards so that each shard's BaseContext LRU, CTI
// station, and coalescer stay hot for a stable partition of the stream.
//
// Each shard owns Replicas virtual nodes placed by a SplitMix64 hash of
// (shard, replica); a CTI maps to the first virtual node clockwise from
// its own hash. The construction is a pure function of (shards,
// replicas), so every client — in-process or HTTP, on any machine —
// computes the same routing table, and growing the fleet from N to N+1
// shards remaps only ~1/(N+1) of the CTI space (the consistent-hashing
// property the ring tests pin).
//
// A Ring is immutable after NewRing and safe for concurrent use.
type Ring struct {
	shards int
	hashes []uint64 // sorted virtual-node positions
	owner  []int    // owner[i] is the shard owning hashes[i]
}

// DefaultReplicas is the virtual-node count per shard used when callers
// pass replicas <= 0. 64 keeps the per-shard load imbalance within ~25%
// for small fleets while the table stays a few KB.
const DefaultReplicas = 64

// ringMix is the SplitMix64 finalizer (same mixer as package xrand), the
// hash behind both virtual-node placement and CTI lookup.
func ringMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewRing builds the routing table for a fleet of `shards` shards with
// `replicas` virtual nodes each (<= 0 selects DefaultReplicas). shards
// must be positive; a one-shard ring routes everything to shard 0.
func NewRing(shards, replicas int) *Ring {
	if shards <= 0 {
		panic("serve: NewRing with non-positive shard count")
	}
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	r := &Ring{
		shards: shards,
		hashes: make([]uint64, 0, shards*replicas),
		owner:  make([]int, 0, shards*replicas),
	}
	type vnode struct {
		h     uint64
		shard int
	}
	nodes := make([]vnode, 0, shards*replicas)
	for s := 0; s < shards; s++ {
		for v := 0; v < replicas; v++ {
			h := ringMix(uint64(s)<<32 | uint64(v)&0xffffffff ^ 0x5eedc0defeedface)
			nodes = append(nodes, vnode{h: h, shard: s})
		}
	}
	// Sort by position; ties (astronomically unlikely) break by shard so
	// the table is still deterministic.
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].h != nodes[j].h {
			return nodes[i].h < nodes[j].h
		}
		return nodes[i].shard < nodes[j].shard
	})
	for _, n := range nodes {
		r.hashes = append(r.hashes, n.h)
		r.owner = append(r.owner, n.shard)
	}
	return r
}

// Shards returns the fleet size the ring routes over.
func (r *Ring) Shards() int { return r.shards }

// Shard returns the shard owning the given CTI ID.
func (r *Ring) Shard(ctiID int64) int {
	if r.shards == 1 {
		return 0
	}
	h := ringMix(uint64(ctiID) ^ 0x9e3779b97f4a7c15)
	// First virtual node clockwise from h, wrapping to the start.
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	return r.owner[i]
}
