package verify_test

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"traceback/internal/core"
	"traceback/internal/isa"
	"traceback/internal/minic"
	"traceback/internal/module"
	"traceback/internal/trace"
	"traceback/internal/verify"
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

// buildInput compiles and instruments one MiniC source into a set
// member carrying its mapfile.
func buildInput(t *testing.T, name, src string) verify.Input {
	t.Helper()
	mod, err := minic.Compile(name, name+".mc", src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Instrument(mod, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return verify.Input{Module: res.Module, Map: res.Map}
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

func textOf(t *testing.T, res *verify.Result) string {
	t.Helper()
	var b bytes.Buffer
	if err := res.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// countSev tallies diagnostics of severity sev attributed to pass.
func countSev(res *verify.Result, pass string, sev verify.Severity) int {
	n := 0
	for _, d := range res.Diags {
		if d.Pass == pass && d.Severity == sev {
			n++
		}
	}
	return n
}

// onlyErrors fails the test if any pass other than want reported an
// error.
func onlyErrors(t *testing.T, res *verify.Result, want string) {
	t.Helper()
	for _, p := range verify.AllPasses() {
		if p != want && res.HasError(p) {
			t.Errorf("unexpected %s error:\n%s", p, textOf(t, res))
		}
	}
}

func TestFleetCleanPair(t *testing.T) {
	client, server := buildInput(t, "client", clientSrc), buildInput(t, "server", serverSrc)
	res := verify.Verify([]verify.Input{client, server}, verify.Options{})
	if !res.Ok() || res.NumWarn != 0 {
		t.Fatalf("expected clean set, got %d errors, %d warnings:\n%s",
			res.NumError, res.NumWarn, textOf(t, res))
	}
	// The RPC graph summary must attribute endpoint 77 to the server.
	txt := textOf(t, res)
	if !strings.Contains(txt, "endpoint 77 by server") {
		t.Errorf("missing served-endpoint summary in:\n%s", txt)
	}
	// A lone module gets the per-module passes only, unattributed.
	for _, d := range verify.Verify([]verify.Input{client}, verify.Options{}).Diags {
		if d.Pass == verify.PassRPC || d.Module != "" {
			t.Errorf("single-module run reported %v", d)
		}
	}
}

func TestFleetUnservedEndpoint(t *testing.T) {
	lost := `int main() {
		int req = alloc(64);
		int resp = alloc(64);
		rpc_call(78, req, 8, resp);
		exit(0);
	}`
	res := verify.Verify([]verify.Input{
		buildInput(t, "client", lost),
		buildInput(t, "server", serverSrc),
	}, verify.Options{})
	if !res.HasError(verify.PassRPC) {
		t.Fatalf("expected %s error for endpoint 78, got:\n%s", verify.PassRPC, textOf(t, res))
	}
	onlyErrors(t, res, verify.PassRPC)
	// The error must be attributed to the calling module.
	found := false
	for _, d := range res.Diags {
		if d.Pass == verify.PassRPC && d.Severity == verify.SevError {
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
	res := verify.Verify([]verify.Input{
		buildInput(t, "client", clientSrc),
		buildInput(t, "server", leaky),
	}, verify.Options{})
	if !res.HasError(verify.PassSync) {
		t.Fatalf("expected %s error for the reply-skipping path, got:\n%s",
			verify.PassSync, textOf(t, res))
	}
	onlyErrors(t, res, verify.PassSync)
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
	res := verify.Verify([]verify.Input{
		buildInput(t, "client", clientSrc),
		buildInput(t, "server", silent),
	}, verify.Options{})
	if !res.HasError(verify.PassSync) {
		t.Fatalf("expected %s error for reply-less serve loop, got:\n%s",
			verify.PassSync, textOf(t, res))
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
	res := verify.Verify([]verify.Input{
		buildInput(t, "client", clientSrc),
		buildInput(t, "server", srv),
		buildInput(t, "replylib", lib),
	}, verify.Options{})
	if res.HasError(verify.PassSync) {
		t.Fatalf("cross-module reply helper not recognized:\n%s", textOf(t, res))
	}
	if !res.Ok() {
		t.Fatalf("expected clean set, got:\n%s", textOf(t, res))
	}
}

func TestFleetAmbiguousTrailerWord(t *testing.T) {
	in := buildInput(t, "server", serverSrc)
	m := in.Module
	if len(m.DAGFixups) == 0 {
		t.Fatal("instrumented module has no DAG fixups")
	}
	// A word with tag 0x7F and bit 31 clear parses as an
	// extended-record trailer during backward mining; it is no DAG
	// record, which decodability reports.
	m.Code[m.DAGFixups[0]].Imm = int32(0x7F080002)
	in.Map.Checksum = m.ChecksumHex()
	res := verify.Verify([]verify.Input{buildInput(t, "client", clientSrc), in}, verify.Options{})
	if !res.HasError(verify.PassEncoding) {
		t.Fatalf("expected %s error for trailer-shaped probe word, got:\n%s",
			verify.PassEncoding, textOf(t, res))
	}
	onlyErrors(t, res, verify.PassEncoding)
}

// TestFleetInvalidWord: every probe word class that backward mining
// cannot decode as exactly one DAG record draws a decodability error
// from the per-module suite, also when the module is one of a set.
func TestFleetInvalidWord(t *testing.T) {
	heavy := func(w uint32) func(*module.Module) {
		return func(m *module.Module) { m.Code[m.DAGFixups[0]].Imm = int32(w) }
	}
	cases := []struct {
		name   string
		mutate func(*module.Module)
	}{
		{"invalid", heavy(uint32(trace.Invalid))},
		{"sentinel", heavy(uint32(trace.Sentinel))},
		{"trailer-shape", heavy(0x7F080002)},
		{"bit31-clear", heavy(0x12345678)},
		{"reserved-dag-id", heavy(uint32(trace.DAGWord(trace.BadDAGID, 0)))},
		{"mask-outside-path-field", func(m *module.Module) {
			for i := range m.Code {
				if m.Code[i].Op == isa.ORM4 {
					m.Code[i].Imm = 1 << trace.NumPathBits
					return
				}
			}
			t.Fatal("server has no lightweight probe")
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := buildInput(t, "server", serverSrc)
			c.mutate(in.Module)
			in.Map.Checksum = in.Module.ChecksumHex()
			for _, set := range [][]verify.Input{{in}, {buildInput(t, "client", clientSrc), in}} {
				res := verify.Verify(set, verify.Options{})
				if !res.HasError(verify.PassEncoding) {
					t.Errorf("%d-module run: no %s error, got:\n%s", len(set), verify.PassEncoding, textOf(t, res))
				}
			}
		})
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
	res := verify.Verify([]verify.Input{
		buildInput(t, "client", lost),
		buildInput(t, "server", wild),
	}, verify.Options{})
	if res.NumError != 0 {
		t.Fatalf("wildcard recv must downgrade unserved endpoints to warnings, got:\n%s",
			textOf(t, res))
	}
	if got := countSev(res, verify.PassRPC, verify.SevWarn); got < 2 {
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
	inputs := []verify.Input{buildInput(t, "client", lost), buildInput(t, "server", serverSrc)}
	res := verify.Verify(inputs, verify.Options{Passes: []string{verify.PassSync}})
	for _, d := range res.Diags {
		if d.Pass != verify.PassStructure && d.Pass != verify.PassSync {
			t.Errorf("pass %q ran despite not being selected: %v", d.Pass, d)
		}
	}
	res = verify.Verify(inputs, verify.Options{Passes: []string{verify.PassRPC}})
	if !res.HasError(verify.PassRPC) {
		t.Fatalf("selected pass did not run:\n%s", textOf(t, res))
	}
}

func TestFleetStructureFailures(t *testing.T) {
	bad := &module.Module{Name: "bad",
		Funcs: []module.Func{{Name: "main", Entry: 5, End: 2}}}
	res := verify.Verify([]verify.Input{
		{Module: nil, Path: "missing.tbm"},
		{Module: bad},
		buildInput(t, "server", serverSrc),
	}, verify.Options{})
	n := countSev(res, verify.PassStructure, verify.SevError)
	if n != 2 {
		t.Fatalf("expected 2 structure errors (nil + invalid), got %d:\n%s", n, textOf(t, res))
	}
	// The valid module must still be analyzed despite the bad peers.
	if len(res.Modules) != 3 || !strings.Contains(textOf(t, res), "endpoint 77 by server") {
		t.Fatalf("Modules = %v:\n%s", res.Modules, textOf(t, res))
	}
}

func TestFleetDeterministic(t *testing.T) {
	inputs := []verify.Input{
		buildInput(t, "client", clientSrc),
		buildInput(t, "server", serverSrc),
	}
	a := verify.Verify(inputs, verify.Options{})
	b := verify.Verify(inputs, verify.Options{})
	if textOf(t, a) != textOf(t, b) {
		t.Fatal("set verification output is not deterministic")
	}
}

func TestFleetAllPassesSorted(t *testing.T) {
	names := verify.AllPasses()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("AllPasses not sorted: %v", names)
	}
	for _, p := range []string{verify.PassRPC, verify.PassSync} {
		if i := sort.SearchStrings(names, p); i == len(names) || names[i] != p {
			t.Errorf("cross-module pass %q missing from AllPasses %v", p, names)
		}
	}
}
