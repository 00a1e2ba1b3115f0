package snap

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// IsFileName reports whether name follows the snap file convention:
// *.snap.json (plain) or *.snap.json.gz (archival). Every tool that
// walks a directory for snaps asks here, so a spool, a batch directory
// and the committed fleet all agree on what counts.
func IsFileName(name string) bool {
	return strings.HasSuffix(name, ".snap.json") || strings.HasSuffix(name, ".snap.json.gz")
}

// LoadFile reads a snap file in either form (see LoadAuto).
func LoadFile(path string) (*Snap, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadAuto(f)
}

// SaveFile writes the snap to path in the archival (gzip) form.
func SaveFile(path string, s *Snap) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.SaveCompressed(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
			return nil, fmt.Errorf("%s: no *.snap.json[.gz] files", arg)
		}
	}
	return paths, nil
}
