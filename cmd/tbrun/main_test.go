package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"traceback/internal/snap"
	"traceback/internal/telemetry"
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
	for _, want := range []string{"loaded seedapp (", "VERIFY FAILED", "verify_runs_total 1",
		"verify_modules_failed_total 1", "verify_modules_clean_total 0", "verify_diags_error_total 1"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
		}
	}
	if !strings.Contains(stderr.String(), "[probe-safety]") {
		t.Errorf("stderr lacks the probe-safety finding:\n%s", stderr.String())
	}
}

// TestRunMetricsCarriesFlightEvents: -metrics to a .json file is the
// flight recorder's one export — the load-time module-verified event
// is in its events — and a metrics file that cannot be written fails
// the run.
func TestRunMetricsCarriesFlightEvents(t *testing.T) {
	dir := t.TempDir()
	tbm := writeCase(t, dir, "clean")
	out := filepath.Join(dir, "run.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-snapdir", filepath.Join(dir, "snaps"), "-metrics", out, tbm}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr.String())
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var dump struct{ Events telemetry.EventDump }
	if err := json.Unmarshal(b, &dump); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range dump.Events.Events {
		found = found || (e.Kind == "module-verified" && e.Detail == "seedapp")
	}
	if !found {
		t.Errorf("run.json events lack module-verified seedapp: %+v", dump.Events)
	}

	stderr.Reset()
	args := []string{"-snapdir", filepath.Join(dir, "snaps"), "-metrics", filepath.Join(dir, "missing", "run.json"), tbm}
	if code := run(args, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "tbrun: ") {
		t.Errorf("unwritable -metrics: exit %d, stderr %q; want 1 with the reason", code, stderr.String())
	}
}

// TestWriteSnapLeavesOnlySnaps: -snapdir is a directory a tbagent may
// be watching, so everything tbrun leaves there is a complete snap
// under the <proc>-<n>.snap.json.gz name it writes — temp files are
// gone, every file loads back to the snap written — and a failed write
// leaves nothing behind.
func TestWriteSnapLeavesOnlySnaps(t *testing.T) {
	dir := t.TempDir()
	want := map[string]*snap.Snap{}
	for n := 1; n <= 3; n++ {
		s := &snap.Snap{
			Host: "tbrun-host", Process: "app", PID: n, Reason: "exception SIGFPE", Time: uint64(1000 * n),
			Buffers: []snap.BufferDump{{Kind: snap.BufMain, OwnerTID: 1, LastKnown: true,
				SubWords: 4, Raw: []byte{byte(n), 0, 0, 0}}},
		}
		name := fmt.Sprintf("%s-%d.snap.json.gz", s.Process, n)
		if err := snap.SaveFile(filepath.Join(dir, name), s); err != nil {
			t.Fatal(err)
		}
		want[name] = s
	}
	if err := snap.SaveFile(filepath.Join(dir, "missing", "app-4.snap.json.gz"), want["app-1.snap.json.gz"]); err == nil {
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
