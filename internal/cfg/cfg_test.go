package cfg

import (
	"testing"
	"testing/quick"

	"snowcat/internal/kernel"
	"snowcat/internal/sim"
)

func small(seed uint64) (*kernel.Kernel, *Graph) {
	k := kernel.Generate(kernel.SmallConfig(seed))
	return k, Build(k)
}

func TestBuildShape(t *testing.T) {
	k, g := small(1)
	if len(g.Succs) != k.NumBlocks() || len(g.Preds) != k.NumBlocks() {
		t.Fatalf("graph size %d/%d, want %d", len(g.Succs), len(g.Preds), k.NumBlocks())
	}
	// Preds must be the exact transpose of Succs.
	edges := 0
	for from, succs := range g.Succs {
		for _, to := range succs {
			edges++
			found := false
			for _, p := range g.Preds[to] {
				if p == int32(from) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d->%d missing from Preds", from, to)
			}
		}
	}
	back := 0
	for _, preds := range g.Preds {
		back += len(preds)
	}
	if back != edges {
		t.Fatalf("pred edge count %d != succ edge count %d", back, edges)
	}
}

func TestEntryBlocksReachable(t *testing.T) {
	k, g := small(3)
	for _, sc := range k.Syscalls {
		entry := k.Func(sc.Fn).Blocks[0]
		seen := g.ReachableFrom(entry)
		count := 0
		for _, v := range seen {
			if v {
				count++
			}
		}
		// A syscall must reach at least its own function's final ret path.
		if count < 2 {
			t.Errorf("syscall %s reaches only %d blocks", sc.Name, count)
		}
	}
}

func TestReachableFromOutOfRange(t *testing.T) {
	_, g := small(5)
	seen := g.ReachableFrom(-1)
	for _, v := range seen {
		if v {
			t.Fatal("out-of-range entry should reach nothing")
		}
	}
}

func TestFindURBsOneHop(t *testing.T) {
	k, g := small(7)
	// Cover exactly the entry block of syscall 0's function.
	covered := make([]bool, k.NumBlocks())
	entry := k.Func(k.Syscalls[0].Fn).Blocks[0]
	covered[entry] = true
	res := g.FindURBs(covered, 1)
	// Every URB must be an immediate successor of the entry.
	succSet := map[int32]bool{}
	for _, s := range g.Succs[entry] {
		succSet[s] = true
	}
	for _, u := range res.URBs {
		if covered[u] {
			t.Fatalf("URB %d is covered", u)
		}
		if !succSet[u] {
			t.Fatalf("1-hop URB %d is not a successor of the only covered block", u)
		}
	}
	for _, e := range res.Edges {
		if e.From != entry {
			t.Fatalf("edge source %d, want %d", e.From, entry)
		}
	}
	if len(res.URBs) == 0 {
		t.Fatal("entry block should have uncovered successors")
	}
}

func TestFindURBsExcludesCovered(t *testing.T) {
	k, g := small(9)
	covered := make([]bool, k.NumBlocks())
	// Cover everything: no URBs possible.
	for i := range covered {
		covered[i] = true
	}
	res := g.FindURBs(covered, 3)
	if len(res.URBs) != 0 || len(res.Edges) != 0 {
		t.Fatalf("full coverage produced %d URBs", len(res.URBs))
	}
}

func TestFindURBsMultiHopGrows(t *testing.T) {
	k, g := small(11)
	covered := make([]bool, k.NumBlocks())
	entry := k.Func(k.Syscalls[1].Fn).Blocks[0]
	covered[entry] = true
	one := g.FindURBs(covered, 1)
	three := g.FindURBs(covered, 3)
	if len(three.URBs) < len(one.URBs) {
		t.Fatalf("3-hop URBs (%d) fewer than 1-hop (%d)", len(three.URBs), len(one.URBs))
	}
	// All 1-hop URBs must be contained in the 3-hop set.
	set := map[int32]bool{}
	for _, u := range three.URBs {
		set[u] = true
	}
	for _, u := range one.URBs {
		if !set[u] {
			t.Fatalf("1-hop URB %d missing from 3-hop set", u)
		}
	}
}

func TestFindURBsSorted(t *testing.T) {
	k, g := small(13)
	covered := coverSequential(t, k, 0)
	res := g.FindURBs(covered, 1)
	for i := 1; i < len(res.URBs); i++ {
		if res.URBs[i] <= res.URBs[i-1] {
			t.Fatalf("URBs not sorted at %d", i)
		}
	}
}

func TestURBEdgesPointIntoURBs(t *testing.T) {
	k, g := small(17)
	covered := coverSequential(t, k, 2)
	res := g.FindURBs(covered, 2)
	urbs := map[int32]bool{}
	for _, u := range res.URBs {
		urbs[u] = true
	}
	for _, e := range res.Edges {
		if !urbs[e.To] {
			t.Fatalf("edge target %d is not a URB", e.To)
		}
		if !covered[e.From] && !urbs[e.From] {
			t.Fatalf("edge source %d neither covered nor URB", e.From)
		}
	}
}

func TestSequentialCoverageYieldsURBs(t *testing.T) {
	// The kernel's planted shared-guarded branches guarantee that a real
	// sequential execution leaves reachable-but-uncovered blocks behind —
	// the premise of the whole paper.
	k, g := small(19)
	withURBs := 0
	for _, sc := range k.Syscalls {
		covered := coverSequential(t, k, sc.ID)
		if len(g.FindURBs(covered, 1).URBs) > 0 {
			withURBs++
		}
	}
	// A tiny fully-covered function may yield none, but across the syscall
	// table most sequential runs must leave uncovered reachable blocks.
	if withURBs < len(k.Syscalls)/2 {
		t.Fatalf("only %d/%d syscalls produced URBs; concurrency testing would be pointless",
			withURBs, len(k.Syscalls))
	}
}

func TestSyscallReach(t *testing.T) {
	k, g := small(23)
	reach := g.SyscallReach()
	if len(reach) != len(k.Syscalls) {
		t.Fatalf("reach sets = %d, want %d", len(reach), len(k.Syscalls))
	}
	for i, sc := range k.Syscalls {
		entry := k.Func(sc.Fn).Blocks[0]
		if !reach[i][entry] {
			t.Errorf("syscall %s does not reach its own entry", sc.Name)
		}
	}
}

// coverSequential runs syscall sc single-threaded and returns its coverage.
func coverSequential(t *testing.T, k *kernel.Kernel, sc int32) []bool {
	t.Helper()
	m := sim.NewMachine(k)
	th := sim.NewThread(m, 0, []sim.Call{{Syscall: sc, Args: []int64{1, 2, 3}}})
	covered := make([]bool, k.NumBlocks())
	var ev sim.Event
	for th.State() == sim.Runnable {
		if err := th.Step(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.EnteredBlock {
			covered[ev.Block] = true
		}
	}
	return covered
}

func TestPropertyURBsDisjointFromCovered(t *testing.T) {
	// For any coverage set and hop count, the URB set never intersects the
	// covered set and every URB is genuinely reachable from it.
	k, g := small(31)
	f := func(seed uint64, hops uint8) bool {
		rngCov := make([]bool, k.NumBlocks())
		// Derive a pseudo-random coverage set from the seed.
		x := seed
		for i := range rngCov {
			x = x*6364136223846793005 + 1442695040888963407
			rngCov[i] = x>>62 == 0 // ~25% covered
		}
		res := g.FindURBs(rngCov, int(hops%4)+1)
		urbs := map[int32]bool{}
		for _, u := range res.URBs {
			if rngCov[u] {
				return false
			}
			urbs[u] = true
		}
		for _, e := range res.Edges {
			if !urbs[e.To] {
				return false
			}
			if !rngCov[e.From] && !urbs[e.From] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
