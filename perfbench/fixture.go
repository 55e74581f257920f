package main

import (
	"fmt"
	"runtime"

	"snowcat/internal/dataset"
	"snowcat/internal/kernel"
	"snowcat/internal/mlpct"
	"snowcat/internal/pic"
)

// The fixtures are fixed per workload; --seed varies only the inputs (the
// CTI stream, the request mix and the arrival schedule), so two seeds
// exercise the same kernel and model on different tests.

// workers is the pool width of every workload: the campaign Parallel, the
// serve scoring pool, and the HTTP client connections. It never exceeds
// the host's CPU count.
var workers = min(2, runtime.NumCPU())

// pctKernelConfig is the kernel of the plain-PCT campaign: the default
// ~2K-block kernel, where execution and race detection dominate.
func pctKernelConfig() kernel.GenConfig { return kernel.DefaultConfig(11) }

// mlKernelConfig is the kernel shared by the model-guided workloads: a
// small kernel with a dense bug population, so the learn loop has bugs to
// find.
func mlKernelConfig() kernel.GenConfig {
	c := kernel.SmallConfig(301)
	c.NumBugs = 12
	return c
}

// picConfig is the launch model of the model-guided workloads.
func picConfig() pic.Config {
	return pic.Config{Dim: 16, Layers: 3, LR: 3e-3, Epochs: 1, Seed: 302, PosWeight: 8}
}

// mlOptions is the per-CTI budget of the model-guided workloads. The
// inference cap, not the execution budget, ends most walks under S1.
func mlOptions() mlpct.Options {
	return mlpct.Options{ExecBudget: 20, InferenceCap: 160, Batch: 32}
}

// modelFixture is a kernel plus a trained launch model.
type modelFixture struct {
	k  *kernel.Kernel
	m  *pic.Model
	tc *pic.TokenCache
}

// trainModel generates the model-guided kernel and trains its launch
// model on a thin slice of labelled interleavings.
func trainModel() (*modelFixture, error) {
	k := kernel.Generate(mlKernelConfig())
	m := pic.New(picConfig())
	tc := pic.NewTokenCache(k, m.Vocab)
	ds, err := dataset.NewCollector(k, 303).Collect(dataset.Config{Seed: 304, NumCTIs: 6, InterleavingsPerCTI: 4, Parallel: workers})
	if err != nil {
		return nil, fmt.Errorf("collecting training data: %w", err)
	}
	train, valid, _ := ds.SplitByCTI(0.7, 0.3, 305)
	if _, err := m.Train(train.Flatten(), tc); err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	m.Tune(valid.Flatten(), tc)
	return &modelFixture{k: k, m: m, tc: tc}, nil
}

// modelConfig describes the model-guided fixture for the run record.
func modelConfig() map[string]any {
	return map[string]any{"kernel": mlKernelConfig(), "model": picConfig(), "opts": mlOptions()}
}
