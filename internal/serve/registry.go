// Package serve exposes PIC inference as a service: a versioned model
// registry with atomic hot-swap, admission control with load shedding and
// graceful drain in front of one pic.Model.PredictAllCtx call per
// request, an LRU cache of per-CTI pic.BaseContexts, a CTI station that
// builds base graphs server-side, and a stdlib net/http JSON API. An
// in-process Client implements predictor.Predictor, so every exploration
// consumer (explore.Walk, campaign, razzer, snowboard) runs unmodified
// against the service.
//
// The economic argument is the paper's ~190:1 ratio between one model
// inference (~0.015 s) and one dynamic execution (~2.8 s): one request
// already carries a CTI's batch of candidate schedules, and any number of
// executors can consult one predictor, so it earns a real service
// boundary. Served predictions are bit-identical to calling
// pic.Model.PredictAllCtx directly — admission, caching, and the wire
// layer only move work around, they never change an operation (pinned by
// the equivalence tests).
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

// Registry holds the versioned model snapshots and the active-version
// pointer. Activation is atomic with respect to Active: a request reads
// either the old or the new snapshot pointer and scores every graph on
// it, so it never mixes versions, and every response carries the version
// that actually scored it. A request still scoring on a retired snapshot
// keeps it alive by holding the pointer. Every loaded version stays
// registered. All methods are safe for concurrent use.
type Registry struct {
	mu     sync.Mutex
	models map[string]*Snapshot
	order  []string // load order, for stable listings
	active *Snapshot
	blocks int // token-cache length every snapshot must match; 0 until first Load
}

// NewRegistry returns an empty registry with no active model.
func NewRegistry() *Registry {
	return &Registry{models: make(map[string]*Snapshot)}
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
	r.models[version] = &Snapshot{Version: version, Model: m, TC: tc}
	r.order = append(r.order, version)
	return nil
}

// Activate atomically makes version the serving model and returns the
// previously active snapshot (nil when this is the first activation).
// In-flight batches keep scoring against the snapshot they read; new
// batches see the new version.
func (r *Registry) Activate(version string) (*Snapshot, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap, ok := r.models[version]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, version)
	}
	old := r.active
	r.active = snap
	return old, nil
}

// Active returns the serving snapshot, or nil when none is active.
func (r *Registry) Active() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.active
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
		snap := r.models[v]
		out = append(out, ModelInfo{
			Version:   v,
			Active:    r.active == snap,
			Params:    snap.Model.NumParams(),
			Threshold: snap.Model.Threshold,
		})
	}
	return out
}
