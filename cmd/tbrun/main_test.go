package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"traceback/internal/snap"
)

// TestWriteSnapLeavesOnlySnaps: -snapdir is a directory a tbagent may
// be watching, so everything tbrun leaves there is a complete snap
// under a snap name — temp files are gone, every file loads back to
// the snap written — and a failed write leaves nothing behind.
func TestWriteSnapLeavesOnlySnaps(t *testing.T) {
	dir := t.TempDir()
	want := map[string]*snap.Snap{}
	for n := 1; n <= 3; n++ {
		s := &snap.Snap{
			Host: "tbrun-host", Process: "app", PID: n, Reason: "exception SIGFPE", Time: uint64(1000 * n),
			Buffers: []snap.BufferDump{{Kind: snap.BufMain, OwnerTID: 1, LastKnown: true,
				SubWords: 4, Raw: []byte{byte(n), 0, 0, 0}}},
		}
		name := fmt.Sprintf("%s-%d.snap.json", s.Process, n)
		if err := writeSnap(filepath.Join(dir, name), s); err != nil {
			t.Fatal(err)
		}
		want[name] = s
	}
	if err := writeSnap(filepath.Join(dir, "missing", "app-4.snap.json"), want["app-1.snap.json"]); err == nil {
		t.Error("writing into a missing directory succeeded")
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Errorf("snapdir holds %d entries, want the %d snaps", len(entries), len(want))
	}
	for _, e := range entries {
		if !snap.IsFileName(e.Name()) || e.IsDir() {
			t.Errorf("snapdir holds %s, which is not a snap file", e.Name())
			continue
		}
		got, err := snap.LoadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Errorf("%s does not load: %v", e.Name(), err)
			continue
		}
		if !reflect.DeepEqual(got, want[e.Name()]) {
			t.Errorf("%s loads as a different snap than was written", e.Name())
		}
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if perm := info.Mode().Perm(); perm != 0o644 {
			t.Errorf("%s: mode %v, want 0644", e.Name(), perm)
		}
	}
}
