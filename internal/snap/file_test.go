package snap

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestSaveFileLoadFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "app-1.snap.json.gz")
	if err := SaveFile(path, testSnap()); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, testSnap()) {
		t.Errorf("round trip changed the snap: %+v", got)
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "absent.snap.json.gz")); !os.IsNotExist(err) {
		t.Errorf("missing file: err = %v, want not-exist", err)
	}
}

// TestExpandPaths covers what the CLIs' batch mode promises: files
// stand for themselves, directories expand sorted, non-snap entries
// are warned about and skipped, and a path reached twice appears once.
func TestExpandPaths(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"b-2.snap.json.gz", "a-1.snap.json.gz", "c-3.snap.json", "README.txt", "app.map.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	empty := t.TempDir()
	a, b := filepath.Join(dir, "a-1.snap.json.gz"), filepath.Join(dir, "b-2.snap.json.gz")
	readme := filepath.Join(dir, "README.txt")
	skipped := []string{readme, filepath.Join(dir, "app.map.json"), filepath.Join(dir, "c-3.snap.json"), filepath.Join(dir, "sub")}

	for _, tc := range []struct {
		name    string
		args    []string
		want    []string
		warned  []string
		wantErr string
	}{
		{name: "file stands for itself", args: []string{b}, want: []string{b}},
		{name: "a named file need not look like a snap", args: []string{readme}, want: []string{readme}},
		{name: "directory expands sorted, skipping the rest", args: []string{dir}, want: []string{a, b}, warned: skipped},
		{name: "dedupe across arguments keeps first position", args: []string{b, dir, a}, want: []string{b, a}, warned: skipped},
		{name: "same directory twice", args: []string{dir, dir}, want: []string{a, b}, warned: append(skipped, skipped...)},
		{name: "directory without snaps", args: []string{empty}, wantErr: "no *.snap.json.gz files"},
		{name: "missing path", args: []string{filepath.Join(dir, "absent")}, wantErr: "no such file"},
	} {
		var warned []string
		got, err := ExpandPaths(tc.args, func(p string) { warned = append(warned, p) })
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: paths %v, want %v", tc.name, got, tc.want)
		}
		if !reflect.DeepEqual(warned, tc.warned) {
			t.Errorf("%s: warned %v, want %v", tc.name, warned, tc.warned)
		}
	}
	if got, err := ExpandPaths([]string{dir}, nil); err != nil || len(got) != 2 {
		t.Errorf("nil warn: %v, %v", got, err)
	}
}

func TestIsFileName(t *testing.T) {
	for name, want := range map[string]bool{
		"app-1.snap.json": false, "app-1.snap.json.gz": true,
		"app.map.json": false, "snap.json": false, "app-1.snap.json.tmp": false, "": false,
	} {
		if IsFileName(name) != want {
			t.Errorf("IsFileName(%q) = %v, want %v", name, !want, want)
		}
	}
}
