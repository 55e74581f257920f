package pic

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"snowcat/internal/cfg"
	"snowcat/internal/ctgraph"
	"snowcat/internal/kernel"
	"snowcat/internal/race"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
)

var updateTrainDigest = flag.Bool("update", false, "rewrite testdata/train_digest.golden")

// The training digest pins every bit the training paths write into a
// model — weights, Adam moments, threshold, the data-flow head — against a
// golden file: one SHA-256 of Encode() after each of Train, FineTune of a
// decoded clone, two TrainIncremental chunks, and TrainDF, with each run's
// loss in hex. A change to the GCN forward or backward, the feature path,
// the loss or the optimiser that moves one bit fails here with the name of
// the run that moved; -update rewrites the golden only for a change meant
// to alter training.

// digestCfg sits off DefaultConfig on every axis the model shape or the
// loss reads: a width that is not a multiple of the 4- and 8-column kernel
// blocks, three layers and a different positive weight.
func digestCfg() Config {
	return Config{Dim: 10, Layers: 3, LR: 4e-3, Epochs: 2, Seed: 31, PosWeight: 5}
}

// digestExamples collects coverage- and flow-labelled examples on a kernel
// with interrupt handlers. Each CTI contributes the serial schedule (no
// hint edges, so the Hint relations are empty), a two-hint schedule, and a
// two-hint schedule with interrupt injections (IRQ handler vertices).
func digestExamples(t *testing.T) (*kernel.Kernel, []*Example) {
	t.Helper()
	kc := kernel.SmallConfig(23)
	kc.NumIRQs = 2
	k := kernel.Generate(kc)
	gen := syz.NewGenerator(k, 29)
	builder := ctgraph.NewBuilder(k, cfg.Build(k))
	var out []*Example
	for i := 0; i < 6; i++ {
		a, b := gen.Generate(), gen.Generate()
		cti := ski.CTI{ID: int64(i), A: a, B: b}
		pa, err := syz.Run(k, a)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := syz.Run(k, b)
		if err != nil {
			t.Fatal(err)
		}
		sampler := ski.NewSampler(pa, pb, 37+uint64(i))
		for _, sched := range []ski.Schedule{{}, sampler.Next(), sampler.NextWithIRQs(2, len(k.IRQs))} {
			res, err := ski.Execute(k, cti, sched)
			if err != nil {
				t.Fatal(err)
			}
			g := builder.Build(cti, pa, pb, sched)
			out = append(out, &Example{
				G:     g,
				Y:     ctgraph.Labels(g, res),
				YFlow: ctgraph.FlowLabels(g, res, race.DefaultWindow),
			})
		}
	}
	return k, out
}

// modelDigest renders one run: its name, its loss bits and the SHA-256 of
// the model's encoding.
func modelDigest(t *testing.T, name string, loss float64, m *Model) string {
	t.Helper()
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s loss=%x sha256=%x", name, loss, sha256.Sum256(data))
}

func TestTrainDigestGolden(t *testing.T) {
	k, exs := digestExamples(t)
	irqGraphs, emptyHint := 0, 0
	for _, ex := range exs {
		if ex.G.EdgeCount(ctgraph.IRQEdge) > 0 {
			irqGraphs++
		}
		if ex.G.EdgeCount(ctgraph.Hint) == 0 {
			emptyHint++
		}
	}
	if irqGraphs == 0 || emptyHint == 0 {
		t.Fatalf("fixture lacks IRQ vertices (%d graphs) or an empty Hint relation (%d graphs)", irqGraphs, emptyHint)
	}
	lines := []string{fmt.Sprintf("fixture examples=%d irq_graphs=%d empty_hint_graphs=%d", len(exs), irqGraphs, emptyHint)}

	m := New(digestCfg())
	tc := NewTokenCache(k, m.Vocab)
	stats, err := m.Train(exs[:12], tc)
	if err != nil {
		t.Fatal(err)
	}
	lines = append(lines, modelDigest(t, "train", stats[len(stats)-1].Loss, m))

	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ft, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	stats, err = ft.FineTune(exs[12:], tc, 2)
	if err != nil {
		t.Fatal(err)
	}
	lines = append(lines, modelDigest(t, "finetune-decoded", stats[len(stats)-1].Loss, ft))

	inc, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	st := inc.NewTrainState()
	for i, chunk := range [][]*Example{exs[12:15], exs[15:]} {
		s, err := inc.TrainIncremental(st, chunk, tc)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, modelDigest(t, fmt.Sprintf("incremental-chunk%d", i), s.Loss, inc))
	}

	df, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	losses, err := df.TrainDF(AsFlowExamples(exs), tc, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	lines = append(lines, modelDigest(t, "traindf", losses[len(losses)-1], df))

	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "train_digest.golden")
	if *updateTrainDigest {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("training digest moved at line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
