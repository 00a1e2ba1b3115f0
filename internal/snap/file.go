package snap

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// IsFileName reports whether name follows the snap file convention,
// *.snap.json.gz. Every tool that walks a directory for snaps asks
// here, so a spool, a batch directory and the committed fleet all
// agree on what counts.
func IsFileName(name string) bool {
	return strings.HasSuffix(name, ".snap.json.gz")
}

// LoadFile reads a snap file (see LoadAuto).
func LoadFile(path string) (*Snap, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadAuto(f)
}

// SaveFile writes the snap to path in the archival (gzip) form,
// atomically (see WriteFile).
func SaveFile(path string, s *Snap) error {
	_, err := WriteFile(path, s.SaveCompressed)
	return err
}

// WriteFile is the one writer of snap files. fill writes the content
// into a dot-named temp file in path's directory (a name IsFileName
// skips), which is made mode 0644, closed and renamed onto path, so a
// reader — a tbagent watching a spool, a warehouse lookup — sees the
// whole file or none of it. The directory must exist. WriteFile
// returns the size of the file written.
func WriteFile(path string, fill func(io.Writer) error) (int64, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snap-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := fill(tmp); err != nil {
		tmp.Close()
		return 0, err
	}
	fi, err := tmp.Stat()
	if err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// ExpandPaths turns command-line arguments into snap file paths: a
// file stands for itself, a directory (batch mode) for its snap files
// in sorted order. Argument order is kept and a path named twice —
// directly, or through a directory and directly — appears once. A
// directory may mix snaps with mapfiles, sources or subdirectories:
// each such entry is passed to warn (nil: skipped silently) instead of
// sinking the batch, but a directory with no snap at all is an error.
func ExpandPaths(args []string, warn func(skipped string)) ([]string, error) {
	seen := map[string]bool{}
	var paths []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
	}
	for _, arg := range args {
		st, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			add(arg)
			continue
		}
		entries, err := os.ReadDir(arg) // sorted by name
		if err != nil {
			return nil, err
		}
		found := 0
		for _, e := range entries {
			p := filepath.Join(arg, e.Name())
			if e.IsDir() || !IsFileName(e.Name()) {
				if warn != nil {
					warn(p)
				}
				continue
			}
			add(p)
			found++
		}
		if found == 0 {
			return nil, fmt.Errorf("%s: no *.snap.json.gz files", arg)
		}
	}
	return paths, nil
}
