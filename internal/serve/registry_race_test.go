package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"snowcat/internal/kernel"
	"snowcat/internal/pic"
)

// The swap-under-load contract, checked under -race: while a writer rolls
// new versions through the registry in a tight loop — load, then
// activate — concurrent readers read the active snapshot and every one
// of them must be exactly one registered version, never a mix and never
// missing. Version identity is checked two ways: pointer identity against
// the table of models the writer registered, and the per-version
// threshold stamped into each model before it was loaded.
func TestRegistrySwapUnderLoad(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(41))
	reg := NewRegistry()

	// table maps version -> the exact *pic.Model registered under it.
	// Entries are recorded before Load and never removed, so a reader
	// holding a retired snapshot still finds its version.
	var table sync.Map
	mkVersion := func(i int) (string, *pic.Model, *pic.TokenCache) {
		m, tc := tinyModel(k, uint64(100+i))
		m.Threshold = 0.05 + float64(i)*0.001 // unique per version
		v := fmt.Sprintf("v%d", i+1)
		table.Store(v, m)
		return v, m, tc
	}

	v0, m0, tc0 := mkVersion(0)
	if err := reg.Load(v0, m0, tc0); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Activate(v0); err != nil {
		t.Fatal(err)
	}

	const (
		readers  = 8
		versions = 40
	)
	var (
		done      atomic.Bool
		responses atomic.Int64
	)
	errc := make(chan error, readers+1)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				snap := reg.Active()
				if snap == nil {
					errc <- errors.New("reader: no active snapshot")
					return
				}
				want, ok := table.Load(snap.Version)
				if !ok {
					errc <- fmt.Errorf("reader: read unregistered version %q", snap.Version)
					return
				}
				wm := want.(*pic.Model)
				if snap.Model != wm {
					errc <- fmt.Errorf("reader: version %q served a foreign model", snap.Version)
					return
				}
				if snap.Model.Threshold != wm.Threshold {
					errc <- fmt.Errorf("reader: version %q threshold %v, want %v",
						snap.Version, snap.Model.Threshold, wm.Threshold)
					return
				}
				responses.Add(1)
			}
		}()
	}

	// The writer: roll versions v2..v41 through.
	go func() {
		defer done.Store(true)
		for i := 1; i < versions; i++ {
			v, m, tc := mkVersion(i)
			if err := reg.Load(v, m, tc); err != nil {
				errc <- fmt.Errorf("writer: load %s: %w", v, err)
				return
			}
			if _, err := reg.Activate(v); err != nil {
				errc <- fmt.Errorf("writer: activate %s: %w", v, err)
				return
			}
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if responses.Load() == 0 {
		t.Fatal("no reader responses recorded")
	}
	if got := reg.Active().Version; got != fmt.Sprintf("v%d", versions) {
		t.Fatalf("final active version %s, want v%d", got, versions)
	}
}
