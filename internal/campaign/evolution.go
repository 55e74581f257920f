package campaign

import (
	"fmt"

	"snowcat/internal/dataset"
	"snowcat/internal/kernel"
	"snowcat/internal/pic"
	"snowcat/internal/predictor"
)

// TrainedModel bundles a trained PIC with everything a campaign needs to
// use it: the token cache of the kernel it will test and the start-up cost
// its training incurred (Table 2's "data + training hours" column).
type TrainedModel struct {
	Name         string
	Model        *pic.Model
	TC           *pic.TokenCache
	StartupHours float64
	ValidReport  pic.Report // URB metrics on the validation split
}

// Predictor adapts the trained model for campaign use.
func (t *TrainedModel) Predictor() predictor.Predictor {
	return predictor.NewPIC(t.Model, t.TC, t.Name)
}

// TrainOptions controls one from-scratch training run.
type TrainOptions struct {
	Name  string
	Model pic.Config
	Data  dataset.Config
	// Dataset, when non-nil, is used instead of collecting per Data —
	// the cached-dataset path (see dataset.SaveFile/LoadFile). Train
	// rejects one naming blocks k lacks with dataset.ErrKernelMismatch.
	Dataset *dataset.Dataset
	// PretrainEpochs for the assembly encoder's masked-LM phase.
	PretrainEpochs int
	// StartupHours charged to campaigns using this model. The paper
	// charges real data-collection + training time (240 h for PIC-5); in
	// this reproduction the charge is part of the cost model and scales
	// with the configured dataset size.
	StartupHours float64
}

// Train runs the full §5.1 pipeline on kernel k: collect a labelled
// dataset, pretrain the encoder, train the GCN, and tune the threshold on
// the validation split.
func Train(k *kernel.Kernel, opts TrainOptions) (*TrainedModel, error) {
	ds := opts.Dataset
	if ds == nil {
		col := dataset.NewCollector(k, opts.Data.Seed^0xc0111ec7)
		var err error
		ds, err = col.Collect(opts.Data)
		if err != nil {
			return nil, fmt.Errorf("campaign: collecting training data: %w", err)
		}
	} else if err := ds.CheckBlocks(k.NumBlocks()); err != nil {
		return nil, fmt.Errorf("campaign: preloaded dataset: %w", err)
	}
	train, valid, _ := ds.SplitByCTI(0.8, 0.2, opts.Data.Seed^0x5011d)

	m := pic.New(opts.Model)
	tc := pic.NewTokenCache(k, m.Vocab)
	if opts.PretrainEpochs > 0 {
		m.Pretrain(tc, opts.PretrainEpochs, opts.Model.Seed^0x12e7)
	}
	if _, err := m.Train(train.Flatten(), tc); err != nil {
		return nil, err
	}
	m.Tune(valid.Flatten(), tc)
	rep := pic.EvaluateScorer(m.AsScorer(tc), valid.Flatten(), m.Threshold, pic.URBOnly)
	return &TrainedModel{
		Name: opts.Name, Model: m, TC: tc,
		StartupHours: opts.StartupHours, ValidReport: rep,
	}, nil
}

// FineTune derives a new model for kernel k2 by fine-tuning a copy of base
// on a (typically smaller) dataset collected from k2 — the §5.4 regime
// behind PIC-6.ft.sml / PIC-6.ft.med / PIC-5.13.ft.sml. The base model is
// not modified.
func FineTune(base *TrainedModel, k2 *kernel.Kernel, opts TrainOptions, epochs int) (*TrainedModel, error) {
	col := dataset.NewCollector(k2, opts.Data.Seed^0xf17e)
	ds, err := col.Collect(opts.Data)
	if err != nil {
		return nil, fmt.Errorf("campaign: collecting fine-tune data: %w", err)
	}
	train, valid, _ := ds.SplitByCTI(0.8, 0.2, opts.Data.Seed^0x5011d)

	m, err := base.Model.Clone()
	if err != nil {
		return nil, err
	}
	tc := pic.NewTokenCache(k2, m.Vocab)
	if _, err := m.FineTune(train.Flatten(), tc, epochs); err != nil {
		return nil, err
	}
	m.Tune(valid.Flatten(), tc)
	rep := pic.EvaluateScorer(m.AsScorer(tc), valid.Flatten(), m.Threshold, pic.URBOnly)
	return &TrainedModel{
		Name: opts.Name, Model: m, TC: tc,
		StartupHours: opts.StartupHours, ValidReport: rep,
	}, nil
}

// Rebind returns a TrainedModel that applies an existing model to a
// different kernel version without any retraining — the §5.4 "PIC-5 on
// Linux 6.1" configuration. Only the token cache is rebuilt.
func Rebind(base *TrainedModel, k2 *kernel.Kernel, name string) *TrainedModel {
	return &TrainedModel{
		Name:         name,
		Model:        base.Model,
		TC:           pic.NewTokenCache(k2, base.Model.Vocab),
		StartupHours: 0, // the base model's cost was already paid
	}
}
