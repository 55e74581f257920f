package serve

import "testing"

func TestRingDeterministic(t *testing.T) {
	a := NewRing(4, 0)
	b := NewRing(4, 0)
	for id := int64(0); id < 1000; id++ {
		if a.Shard(id) != b.Shard(id) {
			t.Fatalf("ring not deterministic at cti %d: %d vs %d", id, a.Shard(id), b.Shard(id))
		}
	}
}

func TestRingCoversAllShards(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 8} {
		r := NewRing(shards, 0)
		if r.Shards() != shards {
			t.Fatalf("Shards() = %d, want %d", r.Shards(), shards)
		}
		counts := make([]int, shards)
		const n = 4096
		for id := int64(0); id < n; id++ {
			s := r.Shard(id)
			if s < 0 || s >= shards {
				t.Fatalf("shard %d out of range [0,%d)", s, shards)
			}
			counts[s]++
		}
		// Consistent hashing with 64 vnodes is not perfectly uniform, but
		// every shard must carry a meaningful share of the space.
		for s, c := range counts {
			if c < n/(shards*4) {
				t.Fatalf("shards=%d: shard %d owns only %d of %d CTIs: %v", shards, s, c, n, counts)
			}
		}
	}
}

func TestRingMinimalRemap(t *testing.T) {
	// Growing the fleet must remap only a minority of the space: the
	// consistent-hashing property that keeps most shard caches warm
	// through a resize. With 4 -> 5 shards, an ideal ring moves 1/5; allow
	// up to 2x that for vnode placement noise.
	a, b := NewRing(4, 0), NewRing(5, 0)
	const n = 8192
	moved := 0
	for id := int64(0); id < n; id++ {
		if a.Shard(id) != b.Shard(id) {
			moved++
		}
	}
	if moved > 2*n/5 {
		t.Fatalf("4->5 shards moved %d of %d CTIs (> 40%%); not consistent hashing", moved, n)
	}
	if moved == 0 {
		t.Fatal("4->5 shards moved nothing; the new shard owns no CTIs")
	}
}

func TestRingPanicsOnBadShards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRing(0, 0) did not panic")
		}
	}()
	NewRing(0, 0)
}
