package atomicfile

import (
	"os"
	"path/filepath"
	"testing"
)

// entries lists dir's file names.
func entries(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

func TestWriteFileReplacesAndCleansUp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.gob")
	if err := os.WriteFile(path, []byte("old contents, longer than the new"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new" {
		t.Fatalf("contents = %q, want %q", got, "new")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Fatalf("mode = %v, want 0644", fi.Mode().Perm())
	}
	if names := entries(t, dir); len(names) != 1 || names[0] != "model.gob" {
		t.Fatalf("directory holds %v, want only model.gob", names)
	}
}

func TestWriteFileFailedRenameCleansUp(t *testing.T) {
	dir := t.TempDir()
	// A rename cannot replace a directory with a file.
	path := filepath.Join(dir, "target")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("data"), 0o644); err == nil {
		t.Fatal("rename over a directory succeeded")
	}
	if names := entries(t, dir); len(names) != 1 || names[0] != "target" {
		t.Fatalf("directory holds %v, want only target", names)
	}
	if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
		t.Fatalf("target changed: %v %v", fi, err)
	}
}
