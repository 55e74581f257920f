// Package atomicfile replaces files atomically, so a crash or a failed
// write in the middle of a save leaves the previous file intact instead of
// a truncated one. Model and dataset files are both written through it.
package atomicfile

import (
	"io/fs"
	"os"
	"path/filepath"
)

// WriteFile writes data to path with permissions perm: it writes a temp
// file in path's directory, syncs and closes it, then renames it over
// path. On any error the temp file is removed and path is untouched.
func WriteFile(path string, data []byte, perm fs.FileMode) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
