// Package verify_test checks the pass suite from the outside: real
// MiniC programs run through the real instrumenter must verify clean
// (no false positives), and the basic input-shape contracts (no
// mapfile, wrong mapfile, uninstrumented module, managed maps) hold.
// Recall — that seeded defects are caught — lives in corpus_test.go.
package verify_test

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"traceback/internal/core"
	"traceback/internal/minic"
	"traceback/internal/module"
	"traceback/internal/telemetry"
	"traceback/internal/verify"
)

// richSrc exercises every control-flow shape the tiler handles:
// if/else diamonds, a loop (SCC cutting), calls (return-point
// headers), a switch dense enough to become a jump table, and early
// returns.
const richSrc = `int acc;
int classify(int x) {
	switch (x) {
	case 0: return 10;
	case 1: return 11;
	case 2: return 12;
	case 3: return 13;
	case 4: return 14;
	default: return 0;
	}
}
int step(int v) {
	if (v > 100) {
		return v - 100;
	} else {
		return v + 1;
	}
}
int main() {
	int i = 0;
	while (i < 8) {
		acc = acc + classify(i % 5);
		acc = step(acc);
		i = i + 1;
	}
	if (acc > 50) {
		print_int(acc);
	}
	exit(0);
}`

// build compiles and instruments src, returning the instrumented
// module and its mapfile.
func build(t *testing.T, src string) (*module.Module, *module.MapFile) {
	t.Helper()
	mod, err := minic.Compile("app", "app.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Instrument(mod, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Module, res.Map
}

// verifyOne verifies a single module and its (possibly nil) mapfile.
func verifyOne(m *module.Module, mf *module.MapFile, opts verify.Options) *verify.Result {
	return verify.Verify([]verify.Input{{Module: m, Map: mf}}, opts)
}

// mustClean verifies and fails the test with the full diagnostic
// listing if anything error-level came back.
func mustClean(t *testing.T, m *module.Module, mf *module.MapFile) *verify.Result {
	t.Helper()
	res := verifyOne(m, mf, verify.Options{})
	if !res.Ok() {
		var b bytes.Buffer
		res.WriteText(&b)
		t.Fatalf("expected clean verification, got %d errors:\n%s", res.NumError, b.String())
	}
	return res
}

func TestVerifyCleanRichProgram(t *testing.T) {
	m, mf := build(t, richSrc)
	res := mustClean(t, m, mf)
	if res.NumWarn != 0 {
		var b bytes.Buffer
		res.WriteText(&b)
		t.Errorf("expected zero warnings on instrumenter output, got %d:\n%s", res.NumWarn, b.String())
	}
}

func TestVerifyCleanTinyProgram(t *testing.T) {
	m, mf := build(t, `int main() { exit(0); }`)
	mustClean(t, m, mf)
}

func TestVerifyCleanNonzeroDAGBase(t *testing.T) {
	mod, err := minic.Compile("app", "app.mc", richSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Instrument(mod, core.Options{DAGBase: 4096})
	if err != nil {
		t.Fatal(err)
	}
	mustClean(t, res.Module, res.Map)
}

func TestVerifyModuleOnly(t *testing.T) {
	m, _ := build(t, richSrc)
	res := verifyOne(m, nil, verify.Options{})
	if !res.Ok() {
		var b bytes.Buffer
		res.WriteText(&b)
		t.Fatalf("module-only verification should pass:\n%s", b.String())
	}
	found := false
	for _, d := range res.Diags {
		if d.Severity == verify.SevInfo && strings.Contains(d.Msg, "no mapfile") {
			found = true
		}
	}
	if !found {
		t.Error("module-only run should note that map-driven checks were skipped")
	}
}

func TestVerifyUninstrumentedModule(t *testing.T) {
	mod, err := minic.Compile("app", "app.mc", richSrc)
	if err != nil {
		t.Fatal(err)
	}
	res := verifyOne(mod, nil, verify.Options{})
	if res.Ok() {
		t.Fatal("uninstrumented module must fail verification")
	}
	if !res.HasError(verify.PassStructure) {
		t.Error("want a structure-pass error for the uninstrumented module")
	}
}

func TestVerifyMapfileDrift(t *testing.T) {
	m, _ := build(t, richSrc)
	_, otherMap := build(t, `int main() { print_int(1); exit(0); }`)
	res := verifyOne(m, otherMap, verify.Options{})
	if res.Ok() {
		t.Fatal("module paired with another program's mapfile must fail")
	}
	if !res.HasError(verify.PassMap) {
		var b bytes.Buffer
		res.WriteText(&b)
		t.Errorf("want a map-consistency error for mapfile drift, got:\n%s", b.String())
	}
}

func TestVerifyManagedMapSkipsNativePasses(t *testing.T) {
	m, mf := build(t, `int main() { exit(0); }`)
	managed := cloneMap(t, mf)
	managed.Managed = true
	res := verifyOne(m, managed, verify.Options{})
	if !res.Ok() {
		var b bytes.Buffer
		res.WriteText(&b)
		t.Fatalf("managed map should short-circuit clean:\n%s", b.String())
	}
	found := false
	for _, d := range res.Diags {
		if strings.Contains(d.Msg, "managed mapfile") {
			found = true
		}
	}
	if !found {
		t.Error("managed run should note that native probe passes were skipped")
	}
}

func TestVerifyPassSelection(t *testing.T) {
	m, mf := build(t, richSrc)
	res := verifyOne(m, mf, verify.Options{Passes: []string{verify.PassCoverage}})
	if !res.Ok() {
		t.Fatal("restricted pass run should still be clean")
	}
	for _, d := range res.Diags {
		if d.Pass != verify.PassStructure && d.Pass != verify.PassCoverage {
			t.Errorf("pass %q ran despite not being selected: %v", d.Pass, d)
		}
	}
}

func TestVerifyWriteJSON(t *testing.T) {
	m, mf := build(t, richSrc)
	res := verifyOne(m, mf, verify.Options{})
	var b bytes.Buffer
	if err := res.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var back struct {
		Modules []string            `json:"modules"`
		Diags   []verify.Diagnostic `json:"diags"`
		Errors  int                 `json:"errors"`
	}
	if err := json.Unmarshal(b.Bytes(), &back); err != nil {
		t.Fatalf("JSON output does not round-trip: %v", err)
	}
	if len(back.Modules) != 1 || back.Modules[0] != "app" || back.Errors != 0 {
		t.Errorf("JSON result = %+v", back)
	}
}

func TestVerifyMetrics(t *testing.T) {
	reg := telemetry.New()
	mt := verify.NewMetrics(reg)
	m, mf := build(t, richSrc)
	mt.Observe(verifyOne(m, mf, verify.Options{}))
	uninstr, err := minic.Compile("app", "app.mc", richSrc)
	if err != nil {
		t.Fatal(err)
	}
	mt.Observe(verifyOne(uninstr, nil, verify.Options{}))
	if got := mt.Runs.Load(); got != 2 {
		t.Errorf("runs = %d, want 2", got)
	}
	if got := mt.Clean.Load(); got != 1 {
		t.Errorf("clean = %d, want 1", got)
	}
	if got := mt.Failed.Load(); got != 1 {
		t.Errorf("failed = %d, want 1", got)
	}
	if mt.DiagErrors.Load() == 0 {
		t.Error("expected error diagnostics counted")
	}
}

func TestAllPassesSorted(t *testing.T) {
	passes := verify.AllPasses()
	if !sort.StringsAreSorted(passes) {
		t.Errorf("AllPasses() = %v, want sorted order", passes)
	}
	want := map[string]bool{
		verify.PassStructure: true, verify.PassCoverage: true, verify.PassSafety: true,
		verify.PassMap: true, verify.PassEncoding: true, verify.PassRPC: true, verify.PassSync: true,
	}
	if len(passes) != len(want) {
		t.Fatalf("AllPasses() = %v, want %d passes", passes, len(want))
	}
	for _, p := range passes {
		if !want[p] {
			t.Errorf("unexpected pass %q", p)
		}
	}
	// Stable across calls.
	again := verify.AllPasses()
	for i := range passes {
		if passes[i] != again[i] {
			t.Fatalf("AllPasses() unstable: %v vs %v", passes, again)
		}
	}
}

func TestDiagnosticModuleAttribution(t *testing.T) {
	base := verify.Diagnostic{
		Pass: verify.PassCoverage, Severity: verify.SevError,
		Func: "main", DAG: -1, Instr: 7, Msg: "boom",
	}
	// Empty module (a lone input): no module attribution is rendered.
	if got, want := base.String(), "error: [probe-coverage] boom (func main, instr 7)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	raw, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "module") {
		t.Errorf("empty module field must be omitted from JSON: %s", raw)
	}

	withMod := base
	withMod.Module = "client"
	if got, want := withMod.String(), "error: [probe-coverage] boom (module client, func main, instr 7)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	raw, err = json.Marshal(withMod)
	if err != nil {
		t.Fatal(err)
	}
	var back verify.Diagnostic
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Module != "client" {
		t.Errorf("module did not round-trip: %+v", back)
	}

	modOnly := verify.Diagnostic{
		Pass: "rpc-endpoints", Severity: verify.SevWarn,
		Module: "server", DAG: -1, Instr: -1, Msg: "m",
	}
	if got, want := modOnly.String(), "warning: [rpc-endpoints] m (module server)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// cloneMap deep-copies a mapfile through its JSON encoding.
func cloneMap(t *testing.T, mf *module.MapFile) *module.MapFile {
	t.Helper()
	raw, err := json.Marshal(mf)
	if err != nil {
		t.Fatal(err)
	}
	out := &module.MapFile{}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatal(err)
	}
	return out
}
