package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"traceback/internal/replay"
	"traceback/internal/snap"
	"traceback/internal/trace"
)

// record writes a recorded quickstart run's snaps (sections attached)
// into a temp dir and returns their paths.
func record(t *testing.T) []string {
	t.Helper()
	l, res, err := replay.Record("quickstart", false, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Snaps {
		s.Nondet = l
	}
	dir := t.TempDir()
	var paths []string
	for i, s := range res.Snaps {
		p := filepath.Join(dir, "snap-"+string(rune('1'+i))+".snap.json.gz")
		if err := snap.SaveFile(p, s); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	return paths
}

func TestReplayCLIByteIdentical(t *testing.T) {
	paths := record(t)
	var out, errb bytes.Buffer
	if code := run(append([]string{"-q"}, paths...), &out, &errb); code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "byte-identical reconstruction") {
		t.Fatalf("stdout: %s", out.String())
	}
}

func TestReplayCLIJSONVerdict(t *testing.T) {
	paths := record(t)
	var out, errb bytes.Buffer
	if code := run([]string{"-json", paths[0]}, &out, &errb); code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, errb.String())
	}
	var v output
	if err := json.Unmarshal(out.Bytes(), &v); err != nil {
		t.Fatalf("unparseable verdict %q: %v", out.String(), err)
	}
	if !v.Identical || v.Scenario != "quickstart" || v.Events == 0 {
		t.Fatalf("verdict %+v", v)
	}
}

func TestReplayCLIRendersFaultView(t *testing.T) {
	paths := record(t)
	var out, errb bytes.Buffer
	if code := run([]string{paths[0]}, &out, &errb); code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "fault-directed view") {
		t.Fatalf("no fault view rendered:\n%s", out.String())
	}
}

// TestReplayCLIDivergence seeds a corrupt recording into the snap and
// asserts the machine-readable rejection: exit 1 with a JSON
// divergence report on stderr.
func TestReplayCLIDivergence(t *testing.T) {
	l, res, err := replay.Record("quickstart", false, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range l.Events {
		if l.Events[i].Kind == trace.NDQuantum {
			l.Events[i].Clock++ // the original run never saw this clock
			break
		}
	}
	for _, s := range res.Snaps {
		s.Nondet = l
	}
	dir := t.TempDir()
	p := filepath.Join(dir, "bad.snap.json.gz")
	if err := snap.SaveFile(p, res.Snaps[0]); err != nil {
		t.Fatal(err)
	}

	var out, errb bytes.Buffer
	if code := run([]string{"-q", p}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
	msg := errb.String()
	i := strings.Index(msg, "{")
	if i < 0 {
		t.Fatalf("no JSON divergence on stderr: %s", msg)
	}
	var dv replay.Divergence
	if err := json.Unmarshal([]byte(strings.TrimSpace(msg[i:])), &dv); err != nil {
		t.Fatalf("unparseable divergence %q: %v", msg, err)
	}
	if dv.Kind != "event-mismatch" {
		t.Fatalf("divergence kind %q, want event-mismatch", dv.Kind)
	}
}

// TestReplayCLINoRecording: a snap without the section is a usage
// error, not a divergence.
func TestReplayCLINoRecording(t *testing.T) {
	_, res, err := replay.Record("quickstart", false, false)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Snaps[0] // never attached
	p := filepath.Join(t.TempDir(), "unrecorded.snap.json.gz")
	if err := snap.SaveFile(p, s); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{p}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2; stderr: %s", code, errb.String())
	}
}

// TestReplayCLIRefusesUnreadableRecording: a recording that holds an
// unknown record kind, or is of version 1, is a usage error (exit 2)
// naming the reason, with no replay attempted.
func TestReplayCLIRefusesUnreadableRecording(t *testing.T) {
	for _, c := range []struct{ name, section, want string }{
		{"unknown-kind", `{"v":2,"scenario":"quickstart","events":[{"kind":153}]}`, "unknown kind 153"},
		{"version-1", `{"v":1,"scenario":"quickstart","interval":64,"raw":"AQBETg=="}`, "re-record"},
	} {
		p := filepath.Join(t.TempDir(), c.name+".snap.json.gz")
		body := []byte(`{"process":"app","reason":"api","nondet":` + c.section + `}`)
		if _, err := snap.WriteFile(p, func(w io.Writer) error { return snap.WriteGzip(w, body) }); err != nil {
			t.Fatal(err)
		}
		var out, errb bytes.Buffer
		if code := run([]string{p}, &out, &errb); code != 2 || out.Len() != 0 || !strings.Contains(errb.String(), c.want) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 2 naming %q", c.name, code, out.String(), errb.String(), c.want)
		}
	}
}

func TestReplayCLIPerturbNonStrict(t *testing.T) {
	paths := record(t)

	var out, errb bytes.Buffer
	if code := run([]string{"-q", "-perturb", "7", paths[0]}, &out, &errb); code != 0 {
		t.Fatalf("perturbed replay exited %d, want 0 (non-strict); stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "perturbation:") {
		t.Fatalf("no mutation description in output:\n%s", out.String())
	}
	// If the perturbed run departed its log, that's expected — it must
	// be a note, never the strict-mode divergence error.
	if strings.Contains(errb.String(), "tbreplay: divergence:") {
		t.Fatalf("perturbed run reported a strict divergence: %s", errb.String())
	}
}

// TestReplayCLIWriteFailure: a verdict or fault view that cannot be
// written is exit 2 (1 means divergence), with the reason on stderr.
func TestReplayCLIWriteFailure(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("no /dev/full:", err)
	}
	defer full.Close()
	paths := record(t)
	for _, mode := range [][]string{nil, {"-q"}, {"-json"}} {
		args := append(append([]string{}, mode...), paths[0])
		var errb bytes.Buffer
		if code := run(args, full, &errb); code != 2 {
			t.Errorf("%v with stdout on /dev/full: exit %d, want 2 (stderr: %s)", mode, code, errb.String())
		}
		if !strings.Contains(errb.String(), "tbreplay: ") {
			t.Errorf("%v: no error on stderr", mode)
		}
	}
}

// TestReplayCLIOutsideTheModule: a committed regression snap replays
// to a byte-identical reconstruction from a working directory that
// holds no repository, since the scenario it rebuilds is embedded.
func TestReplayCLIOutsideTheModule(t *testing.T) {
	path, err := filepath.Abs(filepath.Join("..", "..", "snaps", "regressions", "signal-quickstart-1.snap.json.gz"))
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var out, errb bytes.Buffer
	if code := run([]string{"-q", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "byte-identical reconstruction") {
		t.Fatalf("stdout: %s", out.String())
	}
}
