package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"traceback/internal/core"
	"traceback/internal/minic"
	"traceback/internal/module"
	"traceback/internal/scenario"
	"traceback/internal/snap"
	"traceback/internal/tbrt"
)

// writeFixture compiles a faulting program, runs it under the
// runtime, and writes the snap + mapfile into dir for the CLI.
func writeFixture(t *testing.T, dir string) (snapPath string) {
	t.Helper()
	mod, err := minic.Compile("app", "app.mc", `int main() {
	int z = 0;
	exit(1 / z);
}`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Instrument(mod, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.Launch(scenario.Spec{
		Seed:     1,
		Machines: []scenario.MachineSpec{{Name: "host"}},
		Procs:    []scenario.ProcSpec{{Role: "app", Modules: []*module.Module{res.Module}, Config: &tbrt.Config{Policy: tbrt.DefaultPolicy()}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(50_000)
	snaps := s.Runtimes["app"].Snaps()
	if len(snaps) == 0 {
		t.Fatal("no snap from faulting program")
	}

	if err := module.WriteMapFile(filepath.Join(dir, "app.map.json"), res.Map); err != nil {
		t.Fatal(err)
	}

	snapPath = filepath.Join(dir, "app-1.snap.json")
	sf, err := os.Create(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := snaps[0].Save(sf); err != nil {
		t.Fatal(err)
	}
	sf.Close()
	return snapPath
}

// TestStdoutByteCleanWithTelemetry is the -metrics/-stats regression
// guard: the rendered trace on stdout must be byte-identical whether
// or not telemetry output is requested, because telemetry goes to
// stderr (or a file) only.
func TestStdoutByteCleanWithTelemetry(t *testing.T) {
	dir := t.TempDir()
	snapPath := writeFixture(t, dir)

	var plainOut, plainErr bytes.Buffer
	if code := run([]string{"-maps", dir, snapPath}, &plainOut, &plainErr); code != 0 {
		t.Fatalf("plain run exited %d: %s", code, plainErr.String())
	}
	if plainOut.Len() == 0 {
		t.Fatal("plain run rendered nothing")
	}

	var telOut, telErr bytes.Buffer
	code := run([]string{"-maps", dir, "-stats", "-metrics", "-", snapPath}, &telOut, &telErr)
	if code != 0 {
		t.Fatalf("telemetry run exited %d: %s", code, telErr.String())
	}
	if !bytes.Equal(plainOut.Bytes(), telOut.Bytes()) {
		t.Errorf("stdout differs with telemetry enabled:\n--- plain ---\n%s\n--- with -stats -metrics ---\n%s",
			plainOut.String(), telOut.String())
	}
	if !strings.Contains(telErr.String(), "recon_snaps_total") {
		t.Errorf("stderr missing Prometheus exposition:\n%s", telErr.String())
	}
	if !strings.Contains(telErr.String(), "tbrecon: snaps 1") {
		t.Errorf("stderr missing -stats line:\n%s", telErr.String())
	}
}

// TestMetricsFileJSON checks the .json branch of -metrics.
func TestMetricsFileJSON(t *testing.T) {
	dir := t.TempDir()
	snapPath := writeFixture(t, dir)
	metricsPath := filepath.Join(dir, "metrics.json")

	var out, errBuf bytes.Buffer
	if code := run([]string{"-maps", dir, "-metrics", metricsPath, snapPath}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	b, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"recon_snaps_total": 1`) {
		t.Errorf("metrics JSON missing snap count:\n%s", b)
	}
}

// TestDirectoryMixedEntries: the CLI end of snap.ExpandPaths (whose
// own table covers the expansion cases): a directory named together
// with a snap inside it renders that snap once, and the skip warnings
// for the directory's non-snap entries go to stderr, never stdout.
func TestDirectoryMixedEntries(t *testing.T) {
	dir := t.TempDir()
	snapPath := writeFixture(t, dir) // writes app-1.snap.json + app.map.json
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}

	var out, errBuf bytes.Buffer
	if code := run([]string{"-maps", dir, dir, snapPath}, &out, &errBuf); code != 0 {
		t.Fatalf("mixed dir exited %d: %s", code, errBuf.String())
	}
	if got := strings.Count(out.String(), "snap: process"); got != 1 {
		t.Errorf("snap rendered %d times, want 1 (dedup across args)\n%s", got, out.String())
	}
	for _, skipped := range []string{"app.map.json", "sub"} {
		if !strings.Contains(errBuf.String(), "tbrecon: skipping "+filepath.Join(dir, skipped)) {
			t.Errorf("stderr missing skip warning for %s:\n%s", skipped, errBuf.String())
		}
	}
	if strings.Contains(out.String(), "skipping") {
		t.Error("skip warnings leaked to stdout")
	}
}

// TestDirectoryGzipAndPlainDedup: a directory holding the same snap
// in plain and gzip form reconstructs both files (they are distinct
// paths), but each exactly once, in sorted order.
func TestDirectoryGzipAndPlainDedup(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir)
	// Add a gzip twin of the snap.
	raw, err := os.ReadFile(filepath.Join(dir, "app-1.snap.json"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := snap.Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	zf, err := os.Create(filepath.Join(dir, "app-2.snap.json.gz"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveCompressed(zf); err != nil {
		t.Fatal(err)
	}
	zf.Close()

	var out, errBuf bytes.Buffer
	if code := run([]string{"-maps", dir, dir}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if got := strings.Count(out.String(), "snap: process"); got != 2 {
		t.Errorf("rendered %d snaps, want 2 (one per file, no double-count)\n%s", got, out.String())
	}
}

// TestLogicalOutputDeterministic: -logical over the regression corpus,
// whose crossmachine snaps give two clock skew estimates, prints the
// same bytes on every run — map order never reaches stdout. The
// corpus's seeded-bad snap makes each run exit 1; only stdout counts.
func TestLogicalOutputDeterministic(t *testing.T) {
	root, err := scenario.Root()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "snaps", "regressions")
	var first []byte
	for i := 1; i <= 8; i++ {
		var out bytes.Buffer
		run([]string{"-logical", "-maps", filepath.Join(dir, "maps"), dir}, &out, io.Discard)
		if i == 1 {
			first = out.Bytes()
			if bytes.Count(first, []byte("clock skew estimate")) < 2 {
				t.Fatalf("want two skew estimates:\n%s", first)
			}
		} else if !bytes.Equal(out.Bytes(), first) {
			t.Fatalf("run %d: stdout differs from run 1:\n%s\n--- run 1 ---\n%s", i, out.Bytes(), first)
		}
	}
}
