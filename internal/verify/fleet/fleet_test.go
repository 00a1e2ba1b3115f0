package fleet_test

import (
	"bytes"
	"testing"

	"traceback/internal/core"
	"traceback/internal/minic"
	"traceback/internal/module"
	"traceback/internal/verify"
	"traceback/internal/verify/fleet"
)

const clientSrc = `int main() {
	int req = alloc(64);
	int resp = alloc(64);
	poke(req, 1);
	rpc_call(77, req, 32, resp);
	exit(0);
}`

const serverSrc = `int main() {
	int buf = alloc(64);
	int out = alloc(64);
	int i = 0;
	while (i < 3) {
		rpc_recv(77, buf, 64);
		int kind = peek(buf);
		if (kind == 1) {
			rpc_reply(77, 0, out, 8);
		} else {
			rpc_reply(77, 1, out, 0);
		}
		i = i + 1;
	}
	exit(0);
}`

// build compiles and instruments one MiniC source into a fleet input.
func build(t *testing.T, name, src string) fleet.Input {
	t.Helper()
	mod, err := minic.Compile(name, name+".mc", src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Instrument(mod, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return fleet.Input{Module: res.Module}
}

// minicBytes compiles, instruments, and serializes one MiniC source —
// the raw .tbm form the fuzz target and tools/gen work with.
func minicBytes(name, src string) ([]byte, error) {
	mod, err := minic.Compile(name, name+".mc", src)
	if err != nil {
		return nil, err
	}
	res, err := core.Instrument(mod, core.Options{})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := res.Module.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func textOf(t *testing.T, res *fleet.Result) string {
	t.Helper()
	var b bytes.Buffer
	if err := res.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// countSev tallies error/warning diagnostics attributed to pass.
func countSev(res *fleet.Result, pass string, sev verify.Severity) int {
	n := 0
	for _, d := range res.Diags {
		if d.Pass == pass && d.Severity == sev {
			n++
		}
	}
	return n
}

func TestFleetCleanPair(t *testing.T) {
	res := fleet.Verify([]fleet.Input{
		build(t, "client", clientSrc),
		build(t, "server", serverSrc),
	}, fleet.Options{})
	if !res.Ok() || res.NumWarn != 0 {
		t.Fatalf("expected clean fleet, got %d errors, %d warnings:\n%s",
			res.NumError, res.NumWarn, textOf(t, res))
	}
	// The RPC graph summary must attribute endpoint 77 to the server.
	txt := textOf(t, res)
	if !bytes.Contains([]byte(txt), []byte("endpoint 77 by server")) {
		t.Errorf("missing served-endpoint summary in:\n%s", txt)
	}
}

func TestFleetUnservedEndpoint(t *testing.T) {
	lost := `int main() {
		int req = alloc(64);
		int resp = alloc(64);
		rpc_call(78, req, 8, resp);
		exit(0);
	}`
	res := fleet.Verify([]fleet.Input{
		build(t, "client", lost),
		build(t, "server", serverSrc),
	}, fleet.Options{})
	if !res.HasError(fleet.PassRPC) {
		t.Fatalf("expected %s error for endpoint 78, got:\n%s", fleet.PassRPC, textOf(t, res))
	}
	for _, p := range []string{fleet.PassSync, fleet.PassAmbiguity} {
		if res.HasError(p) {
			t.Errorf("unexpected %s error:\n%s", p, textOf(t, res))
		}
	}
	// The error must be attributed to the calling module.
	found := false
	for _, d := range res.Diags {
		if d.Pass == fleet.PassRPC && d.Severity == verify.SevError {
			found = true
			if d.Module != "client" {
				t.Errorf("unserved-endpoint error attributed to %q, want client", d.Module)
			}
		}
	}
	if !found {
		t.Fatal("no rpc-endpoints error diagnostic")
	}
}

func TestFleetMissingReplyPath(t *testing.T) {
	leaky := `int main() {
		int buf = alloc(64);
		int out = alloc(64);
		rpc_recv(77, buf, 64);
		int kind = peek(buf);
		if (kind == 0) {
			rpc_reply(77, 0, out, 8);
		}
		exit(0);
	}`
	res := fleet.Verify([]fleet.Input{
		build(t, "client", clientSrc),
		build(t, "server", leaky),
	}, fleet.Options{})
	if !res.HasError(fleet.PassSync) {
		t.Fatalf("expected %s error for the reply-skipping path, got:\n%s",
			fleet.PassSync, textOf(t, res))
	}
	if res.HasError(fleet.PassRPC) || res.HasError(fleet.PassAmbiguity) {
		t.Errorf("unexpected non-sync errors:\n%s", textOf(t, res))
	}
}

func TestFleetRecvLoopWithoutReplyIsError(t *testing.T) {
	// The loop back-edge reaches the next recv with the previous
	// request still pending — as much a protocol break as returning.
	silent := `int main() {
		int buf = alloc(64);
		int i = 0;
		while (i < 3) {
			rpc_recv(77, buf, 64);
			i = i + 1;
		}
		exit(0);
	}`
	res := fleet.Verify([]fleet.Input{
		build(t, "client", clientSrc),
		build(t, "server", silent),
	}, fleet.Options{})
	if !res.HasError(fleet.PassSync) {
		t.Fatalf("expected %s error for reply-less serve loop, got:\n%s",
			fleet.PassSync, textOf(t, res))
	}
}

func TestFleetCrossModuleReplier(t *testing.T) {
	// The reply happens inside an imported helper in another module;
	// the repliers fixpoint must resolve the CALX edge.
	srv := `extern "replylib" int do_reply(int out);
	int main() {
		int buf = alloc(64);
		int out = alloc(64);
		rpc_recv(77, buf, 64);
		do_reply(out);
		exit(0);
	}`
	lib := `int do_reply(int out) {
		rpc_reply(77, 0, out, 8);
		return 0;
	}`
	res := fleet.Verify([]fleet.Input{
		build(t, "client", clientSrc),
		build(t, "server", srv),
		build(t, "replylib", lib),
	}, fleet.Options{})
	if res.HasError(fleet.PassSync) {
		t.Fatalf("cross-module reply helper not recognized:\n%s", textOf(t, res))
	}
	if !res.Ok() {
		t.Fatalf("expected clean fleet, got:\n%s", textOf(t, res))
	}
}

func TestFleetAmbiguousTrailerWord(t *testing.T) {
	in := build(t, "server", serverSrc)
	m := in.Module
	if len(m.DAGFixups) == 0 {
		t.Fatal("instrumented module has no DAG fixups")
	}
	// A word with tag 0x7F and bit 31 clear parses as an
	// extended-record trailer during backward mining.
	m.Code[m.DAGFixups[0]].Imm = int32(0x7F080002)
	res := fleet.Verify([]fleet.Input{
		build(t, "client", clientSrc),
		{Module: m},
	}, fleet.Options{})
	if !res.HasError(fleet.PassAmbiguity) {
		t.Fatalf("expected %s error for trailer-shaped probe word, got:\n%s",
			fleet.PassAmbiguity, textOf(t, res))
	}
	if res.HasError(fleet.PassRPC) || res.HasError(fleet.PassSync) {
		t.Errorf("unexpected non-ambiguity errors:\n%s", textOf(t, res))
	}
}

func TestFleetInvalidWord(t *testing.T) {
	in := build(t, "server", serverSrc)
	m := in.Module
	m.Code[m.DAGFixups[0]].Imm = 0
	res := fleet.Verify([]fleet.Input{{Module: m}}, fleet.Options{})
	if !res.HasError(fleet.PassAmbiguity) {
		t.Fatalf("expected %s error for Invalid probe word, got:\n%s",
			fleet.PassAmbiguity, textOf(t, res))
	}
}

func TestFleetWildcardRecvDowngrade(t *testing.T) {
	wild := `int ep;
	int main() {
		int buf = alloc(64);
		ep = peek(buf);
		rpc_recv(ep, buf, 64);
		rpc_reply(ep, 0, buf, 8);
		exit(0);
	}`
	lost := `int main() {
		int req = alloc(64);
		int resp = alloc(64);
		rpc_call(123, req, 8, resp);
		exit(0);
	}`
	res := fleet.Verify([]fleet.Input{
		build(t, "client", lost),
		build(t, "server", wild),
	}, fleet.Options{})
	if res.NumError != 0 {
		t.Fatalf("wildcard recv must downgrade unserved endpoints to warnings, got:\n%s",
			textOf(t, res))
	}
	if got := countSev(res, fleet.PassRPC, verify.SevWarn); got < 2 {
		t.Fatalf("expected wildcard-recv and unserved-call warnings, got %d:\n%s",
			got, textOf(t, res))
	}
}

func TestFleetPassSelection(t *testing.T) {
	lost := `int main() {
		int req = alloc(64);
		int resp = alloc(64);
		rpc_call(78, req, 8, resp);
		exit(0);
	}`
	inputs := []fleet.Input{build(t, "client", lost)}
	res := fleet.Verify(inputs, fleet.Options{Passes: []string{fleet.PassAmbiguity}})
	if len(res.Diags) != 0 {
		t.Fatalf("disabled passes still reported:\n%s", textOf(t, res))
	}
	res = fleet.Verify(inputs, fleet.Options{Passes: []string{fleet.PassRPC}})
	if !res.HasError(fleet.PassRPC) {
		t.Fatalf("selected pass did not run:\n%s", textOf(t, res))
	}
}

func TestFleetStructureFailures(t *testing.T) {
	bad := &module.Module{Name: "bad",
		Funcs: []module.Func{{Name: "main", Entry: 5, End: 2}}}
	res := fleet.Verify([]fleet.Input{
		{Module: nil, Path: "missing.tbm"},
		{Module: bad},
		build(t, "server", serverSrc),
	}, fleet.Options{})
	n := countSev(res, verify.PassStructure, verify.SevError)
	if n != 2 {
		t.Fatalf("expected 2 structure errors (nil + invalid), got %d:\n%s", n, textOf(t, res))
	}
	// The valid module must still be analyzed despite the bad peers.
	if len(res.Modules) != 3 {
		t.Fatalf("Modules = %v", res.Modules)
	}
}

func TestFleetDeterministic(t *testing.T) {
	inputs := []fleet.Input{
		build(t, "client", clientSrc),
		build(t, "server", serverSrc),
	}
	a := fleet.Verify(inputs, fleet.Options{})
	b := fleet.Verify(inputs, fleet.Options{})
	if textOf(t, a) != textOf(t, b) {
		t.Fatal("fleet verification output is not deterministic")
	}
}

func TestFleetAllPassesSorted(t *testing.T) {
	names := fleet.AllPasses()
	if len(names) != 3 {
		t.Fatalf("AllPasses = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("AllPasses not sorted: %v", names)
		}
	}
}
