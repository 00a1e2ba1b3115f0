package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"traceback/internal/core"
	"traceback/internal/minic"
	"traceback/internal/module"
)

const quickstart = "../../examples/quickstart/app.mc"

// TestInstrumentSource: tbinstr -o d app.mc writes the instrumented
// module and its mapfile, and the mapfile is exactly the one
// core.Instrument makes of the same source.
func TestInstrumentSource(t *testing.T) {
	out := filepath.Join(t.TempDir(), "build")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-o", out, quickstart}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr.String())
	}
	entries, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"app.map.json", "app.tb.tbm"}; !reflect.DeepEqual(names, want) {
		t.Errorf("wrote %v, want %v", names, want)
	}
	if !strings.Contains(stdout.String(), "app: ") || !strings.Contains(stdout.String(), " DAGs; ") {
		t.Errorf("no instrumentation summary:\n%s", stdout.String())
	}

	src, err := os.ReadFile(quickstart)
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
	got, err := module.ReadMapFile(filepath.Join(out, "app.map.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res.Map) {
		t.Error("the written mapfile differs from core.Instrument's")
	}
	f, err := os.Open(filepath.Join(out, "app.tb.tbm"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := module.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if m.ChecksumHex() != res.Module.ChecksumHex() {
		t.Error("the written module differs from core.Instrument's")
	}
}

// TestInstrumentRefusesBrokenFleet: against the seeded-broken
// unserved-endpoint peers (a client calling an endpoint no module
// serves), -fleetwith refuses: exit 1, the finding on stderr, and no
// output directory.
func TestInstrumentRefusesBrokenFleet(t *testing.T) {
	corpus := "../../internal/verify/testdata/corpus/fleet/unserved-endpoint/"
	out := filepath.Join(t.TempDir(), "build")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-o", out, "-fleetwith", corpus + "fleetclient.tbm," + corpus + "fleetserver.tbm", quickstart}, &stdout, &stderr)
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	for _, want := range []string{"is served by no module", "refusing to write"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a refused module still left %s behind (%v)", out, err)
	}
}

func TestInstrumentUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "usage: tbinstr") {
		t.Errorf("no input: exit %d, stderr %q", code, stderr.String())
	}
}
