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

// TestDumpPlainSnapIsNotAMap: a snap file — the
// <proc>-<n>.snap.json.gz name tbrun -snapdir writes — is neither a
// mapfile nor a module; without -nondet tbdump says so, naming the
// file, and exits 1 instead of printing anything.
func TestDumpPlainSnapIsNotAMap(t *testing.T) {
	s, err := snap.LoadFile(filepath.Join(snapsDir, "quickstart-app-1.snap.json.gz"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "app-1.snap.json.gz")
	if err := snap.SaveFile(path, s); err != nil {
		t.Fatal(err)
	}
	code, out, errs := tbdump(t, path)
	if code != 1 || out != "" || !strings.Contains(errs, path) || !strings.Contains(errs, "bad magic") {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 1 naming the file and the reason", code, out, errs)
	}
}

// TestDumpNondet: -nondet prints a recorded snap's provenance line and
// its events, and refuses a snap that carries no recording.
func TestDumpNondet(t *testing.T) {
	code, out, errs := tbdump(t, "-nondet", filepath.Join(snapsDir, "regressions", "managed-interrupt-1.snap.json.gz"))
	if code != 0 || !strings.HasPrefix(out, "nondet recording v2: scenario petshop trial · ") ||
		!strings.Contains(out, " managed-interrupt exc=") {
		t.Errorf("exit %d, stdout %q, stderr %q", code, out, errs)
	}
	code, out, errs = tbdump(t, "-nondet", filepath.Join(snapsDir, "quickstart-app-1.snap.json.gz"))
	if code != 1 || out != "" || !strings.Contains(errs, "no nondet section") {
		t.Errorf("unrecorded snap: exit %d, stdout %q, stderr %q; want exit 1, no nondet section", code, out, errs)
	}
}

func TestDumpUsage(t *testing.T) {
	if code, _, errs := tbdump(t); code != 2 || !strings.Contains(errs, "usage: tbdump") {
		t.Errorf("no input: exit %d, stderr %q", code, errs)
	}
}

// TestDumpWriteFailure: output that cannot be written is a failure
// (exit 1, reason on stderr) in every dump mode.
func TestDumpWriteFailure(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("no /dev/full:", err)
	}
	defer full.Close()
	for _, args := range [][]string{
		{"-map", filepath.Join(snapsDir, "maps", "app.map.json")},
		{"-nondet", filepath.Join(snapsDir, "regressions", "managed-interrupt-1.snap.json.gz")},
		{"../../internal/verify/testdata/corpus/clean.tbm"},
	} {
		var errb bytes.Buffer
		if code := run(args, full, &errb); code != 1 {
			t.Errorf("%v with stdout on /dev/full: exit %d, want 1 (stderr: %s)", args, code, errb.String())
		}
		if !strings.Contains(errb.String(), "tbdump: ") {
			t.Errorf("%v: no error on stderr", args)
		}
	}
}
