package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"snowcat/internal/pic"
)

// The CLI commands are exercised end-to-end with tiny workloads; each is
// a thin orchestration over the internal packages, so these tests guard
// flag plumbing and file round-trips rather than algorithmics.

func TestCmdGenKernel(t *testing.T) {
	if err := cmdGenKernel([]string{"-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdGenKernel([]string{"-size", "bogus"}); err == nil {
		t.Fatal("bogus size accepted")
	}
}

func TestCmdCollect(t *testing.T) {
	if err := cmdCollect([]string{"-seed", "5", "-ctis", "3", "-interleavings", "2"}); err != nil {
		t.Fatal(err)
	}
}

func trainTinyModel(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "pic.gob")
	err := cmdTrain([]string{
		"-seed", "7", "-ctis", "6", "-interleavings", "3",
		"-dim", "8", "-layers", "1", "-epochs", "1", "-o", path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal("model file not written")
	}
	return path
}

func TestCmdTrainEvalCampaign(t *testing.T) {
	dir := t.TempDir()
	path := trainTinyModel(t, dir)

	if err := cmdEval([]string{"-seed", "7", "-model", path, "-ctis", "3", "-interleavings", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdCampaign([]string{"-seed", "7", "-model", path, "-ctis", "3", "-budget", "4"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdFineTune(t *testing.T) {
	dir := t.TempDir()
	path := trainTinyModel(t, dir)
	out := filepath.Join(dir, "ft.gob")
	err := cmdFineTune([]string{
		"-seed", "7", "-model", path, "-ctis", "4", "-epochs", "1", "-o", out,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatal("fine-tuned model not written")
	}
}

func TestCmdRazzerWithoutModel(t *testing.T) {
	err := cmdRazzer([]string{
		"-seed", "7", "-pool", "10", "-schedules", "10", "-maxctis", "4",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCmdSnowboard(t *testing.T) {
	dir := t.TempDir()
	path := trainTinyModel(t, dir)
	err := cmdSnowboard([]string{
		"-seed", "7", "-model", path, "-members", "6", "-trials", "20",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMissingModelFileErrors(t *testing.T) {
	if err := cmdEval([]string{"-model", "/nonexistent/pic.gob"}); err == nil {
		t.Fatal("missing model accepted")
	}
}

// truncatedVocabModel saves an untrained model whose vocabulary lacks
// "r3", along with its embedding row. pic.Decode accepts it, yet every r3
// operand of a kernel block would read the [UNK] row.
func truncatedVocabModel(t *testing.T, dir string) string {
	t.Helper()
	m := pic.New(pic.Config{Dim: 8, Layers: 1, Seed: 7})
	id := m.Vocab.ID("r3")
	m.Vocab.Tokens = append(m.Vocab.Tokens[:id:id], m.Vocab.Tokens[id+1:]...)
	emb := m.Enc.Emb.Table
	d := emb.Cols
	drop := func(v []float64) []float64 { return append(v[:id*d:id*d], v[(id+1)*d:]...) }
	emb.Val, emb.Grad, emb.M, emb.V = drop(emb.Val), drop(emb.Grad), drop(emb.M), drop(emb.V)
	emb.Rows--
	path := filepath.Join(dir, "foreign-vocab.gob")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := pic.LoadFile(path); err != nil {
		t.Fatalf("the truncated model must decode cleanly: %v", err)
	}
	return path
}

// TestModelVocabMismatchRejected loads a model whose vocabulary does not
// cover the kernel: eval and serve must refuse it with ErrVocabMismatch
// rather than score the kernel's r3 operands as [UNK].
func TestModelVocabMismatchRejected(t *testing.T) {
	path := truncatedVocabModel(t, t.TempDir())
	if err := cmdEval([]string{"-seed", "7", "-model", path, "-ctis", "2", "-interleavings", "1"}); !errors.Is(err, pic.ErrVocabMismatch) {
		t.Fatalf("eval: error %v, want ErrVocabMismatch", err)
	}
	if err := cmdServe([]string{"-seed", "7", "-model", path, "-addr", "127.0.0.1:0", "-duration", "10ms"}); !errors.Is(err, pic.ErrVocabMismatch) {
		t.Fatalf("serve: error %v, want ErrVocabMismatch", err)
	}
}

func TestCmdTrace(t *testing.T) {
	if err := cmdTrace([]string{"-seed", "3", "-steps", "10"}); err != nil {
		t.Fatal(err)
	}
}
