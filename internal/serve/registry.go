// Package serve exposes PIC inference as a service: a versioned model
// registry with atomic hot-swap, a dynamic micro-batch coalescer feeding
// the zero-alloc inference fast path, an LRU cache of per-CTI
// pic.BaseContexts, admission control with load shedding and graceful
// drain, and a stdlib net/http JSON API. An in-process Client implements
// predictor.Predictor, so every exploration consumer (explore.Walk,
// campaign, razzer, snowboard) runs unmodified against the service.
//
// The economic argument is the paper's ~190:1 ratio between one model
// inference (~0.015 s) and one dynamic execution (~2.8 s): at scale the
// predictor is the shared high-QPS component that fleets of lightweight
// executors consult, so it earns a real service boundary. Served
// predictions are bit-identical to calling pic.Model.PredictAllCtx
// directly — batching, caching, and the wire layer only move work around,
// they never change an operation (pinned by the equivalence tests).
package serve

import (
	"errors"
	"fmt"
	"sync"

	"snowcat/internal/pic"
)

// Registry errors.
var (
	// ErrNoModel reports a predict request with no active model.
	ErrNoModel = errors.New("serve: no active model")
	// ErrUnknownModel reports a version the registry has never loaded.
	ErrUnknownModel = errors.New("serve: unknown model version")
	// ErrDuplicateModel reports loading a version that already exists.
	ErrDuplicateModel = errors.New("serve: duplicate model version")
	// ErrModelActive reports unloading the currently active version.
	ErrModelActive = errors.New("serve: cannot unload the active model")
	// ErrKernelMismatch reports a model whose token cache covers a
	// different block universe than the registry's first model — one
	// registry serves one kernel version.
	ErrKernelMismatch = errors.New("serve: model token cache does not match the registry kernel")
)

// Snapshot is one immutable registered model version: the gob-loaded (and
// Rebind-ed) pic.Model plus the kernel token cache it predicts with. Both
// are read-only during inference, so any number of scoring workers share a
// snapshot; its pointer identity keys the BaseContext cache.
type Snapshot struct {
	Version string
	Model   *pic.Model
	TC      *pic.TokenCache
}

// entry pairs a snapshot with its in-flight reference count. A batch holds
// a reference for exactly the duration of its scoring, so Unload can drain
// an old version before releasing it.
type entry struct {
	snap *Snapshot
	refs int
}

// Registry holds the versioned model snapshots and the active-version
// pointer. Activation is atomic with respect to Acquire: a batch sees
// either the old or the new snapshot in full, never a mix, and every
// response carries the version that actually scored it. All methods are
// safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	drained *sync.Cond // signalled when any entry's refcount hits zero
	models  map[string]*entry
	order   []string // load order, for stable listings
	active  *entry
	blocks  int // token-cache length every snapshot must match; 0 until first Load
}

// NewRegistry returns an empty registry with no active model.
func NewRegistry() *Registry {
	r := &Registry{models: make(map[string]*entry)}
	r.drained = sync.NewCond(&r.mu)
	return r
}

// Load registers a model under a fresh version without activating it. The
// model must already be usable for concurrent inference (pic.Decode
// rebinds the cached parameter views; models built in-process are ready as
// is). Every version of one registry must serve the same kernel: token
// caches of differing block counts are rejected.
func (r *Registry) Load(version string, m *pic.Model, tc *pic.TokenCache) error {
	if version == "" || m == nil || tc == nil {
		return fmt.Errorf("serve: Load(%q): version, model and token cache are all required", version)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.models[version]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateModel, version)
	}
	if r.blocks == 0 {
		r.blocks = len(tc.IDs)
	} else if len(tc.IDs) != r.blocks {
		return fmt.Errorf("%w: version %q covers %d blocks, registry serves %d",
			ErrKernelMismatch, version, len(tc.IDs), r.blocks)
	}
	r.models[version] = &entry{snap: &Snapshot{Version: version, Model: m, TC: tc}}
	r.order = append(r.order, version)
	return nil
}

// LoadEncoded decodes a gob-serialised model (pic.Decode, which calls
// Rebind on every parameter so the snapshot is safe for the concurrent
// inference paths), builds its token cache for the kernel the cache
// builder closes over, and registers it.
func (r *Registry) LoadEncoded(version string, data []byte, tokenCache func(m *pic.Model) *pic.TokenCache) error {
	m, err := pic.Decode(data)
	if err != nil {
		return err
	}
	return r.Load(version, m, tokenCache(m))
}

// Activate atomically makes version the serving model and returns the
// previously active snapshot (nil when this is the first activation).
// In-flight batches keep scoring against the snapshot they acquired; new
// batches see the new version.
func (r *Registry) Activate(version string) (*Snapshot, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.models[version]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, version)
	}
	var old *Snapshot
	if r.active != nil {
		old = r.active.snap
	}
	r.active = e
	return old, nil
}

// Active returns the serving snapshot, or nil when none is active.
func (r *Registry) Active() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.active == nil {
		return nil
	}
	return r.active.snap
}

// Acquire pins the active snapshot for the duration of one batch: the
// returned release must be called exactly once when scoring finishes.
// Unload of that version blocks until every acquired reference is
// released, so a hot-swap never yanks parameters out from under a batch.
func (r *Registry) Acquire() (*Snapshot, func(), error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.active == nil {
		return nil, nil, ErrNoModel
	}
	e := r.active
	e.refs++
	var once sync.Once
	release := func() {
		once.Do(func() {
			r.mu.Lock()
			e.refs--
			if e.refs == 0 {
				r.drained.Broadcast()
			}
			r.mu.Unlock()
		})
	}
	return e.snap, release, nil
}

// Unload removes a non-active version, blocking until its in-flight
// references drain — the release half of a hot-swap (Activate the new
// version, then Unload the old one once its last batch completes).
func (r *Registry) Unload(version string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.models[version]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownModel, version)
	}
	if r.active == e {
		return fmt.Errorf("%w: %q", ErrModelActive, version)
	}
	// Remove from the index first so listings stop showing the version,
	// then wait out the in-flight batches (no new ones can start: Acquire
	// only hands out the active snapshot).
	delete(r.models, version)
	for i, v := range r.order {
		if v == version {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	for e.refs > 0 {
		r.drained.Wait()
	}
	return nil
}

// ModelInfo describes one registered version for listings.
type ModelInfo struct {
	Version   string  `json:"version"`
	Active    bool    `json:"active"`
	Params    int     `json:"params"`
	Threshold float64 `json:"threshold"`
}

// List returns every registered version in load order.
func (r *Registry) List() []ModelInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ModelInfo, 0, len(r.order))
	for _, v := range r.order {
		e := r.models[v]
		out = append(out, ModelInfo{
			Version:   v,
			Active:    r.active == e,
			Params:    e.snap.Model.NumParams(),
			Threshold: e.snap.Model.Threshold,
		})
	}
	return out
}
