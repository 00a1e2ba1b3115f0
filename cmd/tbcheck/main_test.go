package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"traceback/internal/core"
	"traceback/internal/minic"
	"traceback/internal/module"
	"traceback/internal/verify/seed"
)

const appSrc = `int f(int x) {
	if (x > 2) {
		return x * 3;
	}
	return x + 1;
}
int main() {
	print_int(f(getarg()));
	exit(0);
}`

// writeFixture writes app.mc plus an instrumented app.tb.tbm and its
// sibling app.map.json into a temp dir.
func writeFixture(t *testing.T) (dir, mcPath, tbmPath, mapPath string) {
	t.Helper()
	dir = t.TempDir()
	mcPath = filepath.Join(dir, "app.mc")
	if err := os.WriteFile(mcPath, []byte(appSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	mod, err := minic.Compile("app", "app.mc", appSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Instrument(mod, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbmPath = filepath.Join(dir, "app.tb.tbm")
	f, err := os.Create(tbmPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Module.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	mapPath = filepath.Join(dir, "app.map.json")
	if err := module.WriteMapFile(mapPath, res.Map); err != nil {
		t.Fatal(err)
	}
	return dir, mcPath, tbmPath, mapPath
}

func TestCheckSourceClean(t *testing.T) {
	_, mc, _, _ := writeFixture(t)
	var out, errb bytes.Buffer
	if code := run([]string{mc}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, errb.String(), out.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("verified clean")) {
		t.Errorf("missing clean summary in: %s", out.String())
	}
}

func TestCheckModuleWithSiblingMap(t *testing.T) {
	_, _, tbm, _ := writeFixture(t)
	var out, errb bytes.Buffer
	if code := run([]string{tbm}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, errb.String(), out.String())
	}
	// The sibling map was found, so no "no mapfile" info diag should
	// have been emitted.
	if bytes.Contains(out.Bytes(), []byte("no mapfile")) {
		t.Errorf("sibling mapfile not picked up: %s", out.String())
	}
}

func TestCheckExplicitMapFlag(t *testing.T) {
	_, _, tbm, mp := writeFixture(t)
	var out, errb bytes.Buffer
	if code := run([]string{"-map", mp, tbm}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
}

func TestCheckMapOnly(t *testing.T) {
	_, _, _, mp := writeFixture(t)
	var out, errb bytes.Buffer
	if code := run([]string{mp}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("structurally valid")) {
		t.Errorf("map-only output: %s", out.String())
	}
}

func TestCheckJSONOutput(t *testing.T) {
	_, mc, _, _ := writeFixture(t)
	var out, errb bytes.Buffer
	if code := run([]string{"-json", mc}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	var res struct {
		Modules []string `json:"modules"`
		Errors  int      `json:"errors"`
	}
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if len(res.Modules) != 1 || res.Modules[0] != mc || res.Errors != 0 {
		t.Errorf("JSON result = %+v", res)
	}
}

// TestCheckBrokenCorpus drives the CLI the way make check does: the
// seeded-broken modules must all be flagged (-broken exit 0), and
// without -broken the same inputs must fail.
func TestCheckBrokenCorpus(t *testing.T) {
	dir := t.TempDir()
	cases, err := seed.Cases()
	if err != nil {
		t.Fatal(err)
	}
	var broken []string
	for _, c := range cases {
		if c.Pass == "" {
			continue
		}
		tbm := filepath.Join(dir, c.Name+".tbm")
		f, err := os.Create(tbm)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Module.WriteTo(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if err := module.WriteMapFile(filepath.Join(dir, c.Name+".map.json"), c.Map); err != nil {
			t.Fatal(err)
		}
		broken = append(broken, tbm)
	}
	var out, errb bytes.Buffer
	if code := run(append([]string{"-broken"}, broken...), &out, &errb); code != 0 {
		t.Fatalf("-broken over seeded corpus: exit %d, stderr: %s", code, errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := run(broken, &out, &errb); code != 1 {
		t.Fatalf("broken modules without -broken: exit %d, want 1", code)
	}
}

// writeFleetCorpus materializes seed.FleetCases as one directory of
// .tbm files per case, the layout tools/gen commits and -fleet -broken
// consumes.
func writeFleetCorpus(t *testing.T) (clean string, broken []string) {
	t.Helper()
	dir := t.TempDir()
	cases, err := seed.FleetCases()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		caseDir := filepath.Join(dir, c.Name)
		if err := os.MkdirAll(caseDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, fm := range c.Modules {
			f, err := os.Create(filepath.Join(caseDir, fm.Name+".tbm"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fm.Module.WriteTo(f); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
		if c.Pass == "" {
			clean = caseDir
		} else {
			broken = append(broken, caseDir)
		}
	}
	if clean == "" || len(broken) == 0 {
		t.Fatal("fleet corpus lacks a clean or broken case")
	}
	return clean, broken
}

func TestCheckFleetClean(t *testing.T) {
	clean, _ := writeFleetCorpus(t)
	var out, errb bytes.Buffer
	if code := run([]string{"-fleet", clean}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, errb.String(), out.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("fleet of 2 module(s) verified clean")) {
		t.Errorf("missing clean fleet summary in: %s", out.String())
	}
}

func TestCheckFleetBrokenCorpus(t *testing.T) {
	_, broken := writeFleetCorpus(t)
	var out, errb bytes.Buffer
	if code := run(append([]string{"-fleet", "-broken"}, broken...), &out, &errb); code != 0 {
		t.Fatalf("-fleet -broken over seeded corpus: exit %d, stderr: %s", code, errb.String())
	}
	// Each broken case is its own fleet and must fail without -broken.
	for _, caseDir := range broken {
		out.Reset()
		errb.Reset()
		if code := run([]string{"-fleet", caseDir}, &out, &errb); code != 1 {
			t.Errorf("%s without -broken: exit %d, want 1", caseDir, code)
		}
	}
}

// TestCheckFleetRunsPerModulePasses: a set is verified module by
// module too, so a seeded-broken member fails a -fleet run even though
// it breaks no cross-module rule.
func TestCheckFleetRunsPerModulePasses(t *testing.T) {
	corpus := "../../internal/verify/testdata/corpus/"
	var out, errb bytes.Buffer
	args := []string{"-fleet", corpus + "fleet/fleet-clean/fleetclient.tbm",
		corpus + "fleet/fleet-clean/fleetserver.tbm", corpus + "missing-probe.tbm"}
	if code := run(args, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s\nstdout: %s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), "error: [probe-coverage]") || strings.Contains(out.String(), "verified clean") {
		t.Errorf("missing-probe.tbm not flagged by probe-coverage:\n%s", out.String())
	}
}

// TestCheckWriteFailure: a report that cannot be written is an I/O
// failure (exit 2) in text mode as in -json mode, not a silent pass.
func TestCheckWriteFailure(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("no /dev/full:", err)
	}
	defer full.Close()
	_, mc, _, _ := writeFixture(t)
	for _, args := range [][]string{{mc}, {"-json", mc}} {
		var errb bytes.Buffer
		if code := run(args, full, &errb); code != 2 {
			t.Errorf("%v with stdout on /dev/full: exit %d, want 2 (stderr: %s)", args, code, errb.String())
		}
	}
}

func TestCheckFleetJSON(t *testing.T) {
	clean, _ := writeFleetCorpus(t)
	var out, errb bytes.Buffer
	if code := run([]string{"-fleet", "-json", clean}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	var res struct {
		Modules []string `json:"modules"`
		Errors  int      `json:"errors"`
	}
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if len(res.Modules) != 2 || res.Errors != 0 {
		t.Errorf("fleet JSON result = %+v", res)
	}
}

func TestCheckFleetSourceInputs(t *testing.T) {
	// .mc inputs are compiled and instrumented in memory, like the
	// single-module path — one fleet over the crossmachine example.
	var out, errb bytes.Buffer
	args := []string{"-fleet",
		"../../examples/crossmachine/client.mc",
		"../../examples/crossmachine/server.mc",
		"../../examples/crossmachine/strlib.mc"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, errb.String(), out.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("endpoint 9 by")) {
		t.Errorf("missing RPC graph summary in: %s", out.String())
	}
}

func TestCheckFleetUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-fleet", "-passes", "nosuch", "x.tbm"}, &out, &errb); code != 2 {
		t.Errorf("unknown fleet pass: exit %d, want 2", code)
	}
	if code := run([]string{"-fleet", "-map", "m.map.json", "x.tbm"}, &out, &errb); code != 2 {
		t.Errorf("-fleet with -map: exit %d, want 2", code)
	}
	if code := run([]string{"-fleet", "/nonexistent"}, &out, &errb); code != 2 {
		t.Errorf("unreadable fleet input: exit %d, want 2", code)
	}
}

func TestCheckUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := run([]string{"-passes", "nosuch", "x.mc"}, &out, &errb); code != 2 {
		t.Errorf("unknown pass: exit %d, want 2", code)
	}
	if code := run([]string{"/nonexistent/zz.mc"}, &out, &errb); code != 2 {
		t.Errorf("unreadable input: exit %d, want 2", code)
	}
}
