package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"traceback/internal/core"
	"traceback/internal/minic"
	"traceback/internal/module"
	"traceback/internal/snap"
	"traceback/internal/telemetry"
)

const snapsDir = "../../snaps"

// tbdump runs the CLI in-process and returns its exit status and
// output.
func tbdump(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestDumpMap: -map summarizes a mapfile — here the quickstart app's,
// which instruments into five DAGs.
func TestDumpMap(t *testing.T) {
	src, err := os.ReadFile("../../examples/quickstart/app.mc")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := minic.Compile("app", "app.mc", string(src))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Instrument(mod, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "app.map.json")
	if err := module.WriteMapFile(path, res.Map); err != nil {
		t.Fatal(err)
	}
	code, out, errs := tbdump(t, "-map", path)
	if code != 0 || !strings.HasPrefix(out, "mapfile app (native): 5 DAGs, base 0, checksum "+res.Map.Checksum+"\n") {
		t.Errorf("exit %d, stdout %q, stderr %q", code, out, errs)
	}
	if !strings.Contains(out, "DAG 4 (") {
		t.Errorf("not every DAG is listed:\n%s", out)
	}
}

// TestDumpPlainSnapIsNotAMap: a plain snap file — the
// <proc>-<n>.snap.json name tbrun -snapdir writes — ends in .json but
// is no mapfile; tbdump says so and exits 1 instead of printing an
// empty map.
func TestDumpPlainSnapIsNotAMap(t *testing.T) {
	s, err := snap.LoadFile(filepath.Join(snapsDir, "quickstart-app-1.snap.json.gz"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "app-1.snap.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	code, out, errs := tbdump(t, path)
	if code != 1 || out != "" || !strings.Contains(errs, path) || !strings.Contains(errs, "names no module") {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 1 naming the file and the reason", code, out, errs)
	}
}

// TestDumpNondet: -nondet prints a recorded snap's provenance line and
// its events, and refuses a snap that carries no recording.
func TestDumpNondet(t *testing.T) {
	code, out, errs := tbdump(t, "-nondet", filepath.Join(snapsDir, "regressions", "managed-interrupt-1.snap.json.gz"))
	if code != 0 || !strings.HasPrefix(out, "nondet recording v1: scenario petshop trial · ") ||
		!strings.Contains(out, " managed-interrupt exc=") {
		t.Errorf("exit %d, stdout %q, stderr %q", code, out, errs)
	}
	code, out, errs = tbdump(t, "-nondet", filepath.Join(snapsDir, "quickstart-app-1.snap.json.gz"))
	if code != 1 || out != "" || !strings.Contains(errs, "no nondet section") {
		t.Errorf("unrecorded snap: exit %d, stdout %q, stderr %q; want exit 1, no nondet section", code, out, errs)
	}
}

// TestDumpEvents: -events renders a flight-recorder dump as tbrun
// -events writes it, oldest retained event first.
func TestDumpEvents(t *testing.T) {
	rec := telemetry.NewRecorder(2)
	rec.Record(10, "module-verified", "app")
	rec.Record(20, "snap-taken", "exception SIGFPE")
	rec.Record(30, "process-exit", "app")
	path := filepath.Join(t.TempDir(), "flight.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	code, out, errs := tbdump(t, "-events", path)
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if code != 0 || len(lines) != 3 || lines[0] != "flight recorder: 3 event(s) recorded, 1 dropped, 2 retained" ||
		!strings.Contains(lines[1], "clock 20") || !strings.Contains(lines[1], "snap-taken") ||
		!strings.HasSuffix(lines[2], "process-exit     app") {
		t.Errorf("exit %d, stderr %q, stdout:\n%s", code, errs, out)
	}
}

func TestDumpUsage(t *testing.T) {
	if code, _, errs := tbdump(t); code != 2 || !strings.Contains(errs, "usage: tbdump") {
		t.Errorf("no input: exit %d, stderr %q", code, errs)
	}
}
