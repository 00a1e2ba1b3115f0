package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"traceback/internal/snap"
	"traceback/internal/verify/seed"
)

// writeCase writes the named seeded-broken corpus module as a .tbm.
func writeCase(t *testing.T, dir, name string) string {
	t.Helper()
	cases, err := seed.Cases()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if c.Name != name {
			continue
		}
		var b bytes.Buffer
		if _, err := c.Module.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".tbm")
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	t.Fatalf("no corpus case %s", name)
	return ""
}

// TestRunReportsVerifyFailure: a module whose probes fail load-time
// verification still runs, but says so on stdout and stderr and in
// the verify_ counters. (tbrun has no mapfile, so the case is one the
// module-only passes catch.)
func TestRunReportsVerifyFailure(t *testing.T) {
	dir := t.TempDir()
	tbm := writeCase(t, dir, "clobbering-probe")
	var stdout, stderr bytes.Buffer
	args := []string{"-snapdir", filepath.Join(dir, "snaps"), "-maxsteps", "100000", "-metrics", "-", tbm}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr.String())
	}
	for _, want := range []string{"loaded seedapp (", "VERIFY FAILED", "verify_modules_failed_total 1"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
		}
	}
	if !strings.Contains(stderr.String(), "[probe-safety]") {
		t.Errorf("stderr lacks the probe-safety finding:\n%s", stderr.String())
	}
}

// TestRunEventsWriteFailure: an -events dump that cannot be written
// fails the run.
func TestRunEventsWriteFailure(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	dir := t.TempDir()
	tbm := writeCase(t, dir, "clean")
	var stdout, stderr bytes.Buffer
	args := []string{"-snapdir", filepath.Join(dir, "snaps"), "-events", "/dev/full", tbm}
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Errorf("exit %d, want 1; stderr: %s", code, stderr.String())
	}
}

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
		if _, err := snap.WriteFile(filepath.Join(dir, name), s.Save); err != nil {
			t.Fatal(err)
		}
		want[name] = s
	}
	if _, err := snap.WriteFile(filepath.Join(dir, "missing", "app-4.snap.json"), want["app-1.snap.json"].Save); err == nil {
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
