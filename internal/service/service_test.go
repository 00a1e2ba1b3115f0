package service

import (
	"strings"
	"testing"

	"traceback/internal/core"
	"traceback/internal/minic"
	"traceback/internal/recon"
	"traceback/internal/tbrt"
	"traceback/internal/vm"
)

func buildApp(t *testing.T, src string) *core.Result {
	t.Helper()
	mod, err := minic.Compile("app", "app.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Instrument(mod, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

const hangSrc = `int m;
int main() {
	mutex_lock(&m);
	mutex_lock(&m);
	exit(0);
}`

func TestHangDetectionAndSnap(t *testing.T) {
	res := buildApp(t, hangSrc)
	w := vm.NewWorld(1)
	mach := w.NewMachine("host", 0)
	p, rt, err := tbrt.NewProcess(mach, "hung-app", tbrt.Config{Policy: tbrt.DefaultPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	p.Load(res.Module)
	p.StartMain(0)
	svc := New(mach, 10_000)
	svc.Register(rt)

	w.Run(1000, func() bool { return p.Exited })
	if p.Exited {
		t.Fatal("self-deadlock exited?")
	}
	// Not yet hung by the threshold.
	if hung := svc.CheckStatus(); len(hung) != 0 {
		t.Fatalf("hung too early: %v", hung)
	}
	mach.SetClock(mach.Clock() + 50_000)
	hung := svc.CheckStatus()
	if len(hung) != 1 || hung[0] != "hung-app" {
		t.Fatalf("hung = %v", hung)
	}
	if len(svc.Snaps) != 1 {
		t.Fatalf("%d snaps", len(svc.Snaps))
	}
	if !strings.Contains(svc.Snaps[0].Reason, "hang") {
		t.Errorf("reason = %q", svc.Snaps[0].Reason)
	}
	// The hang snap reconstructs and names the blocking syscall.
	pt, err := recon.Reconstruct(svc.Snaps[0], recon.NewMapSet(res.Map))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	recon.Render(&sb, pt, recon.RenderOptions{})
	if !strings.Contains(sb.String(), "mutex-lock") {
		t.Errorf("hang view missing the blocking syscall:\n%s", sb.String())
	}
}

func TestHangPolicyOff(t *testing.T) {
	res := buildApp(t, hangSrc)
	w := vm.NewWorld(1)
	mach := w.NewMachine("host", 0)
	pol := tbrt.DefaultPolicy()
	pol.Hang = false
	p, rt, err := tbrt.NewProcess(mach, "hung-app", tbrt.Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	p.Load(res.Module)
	p.StartMain(0)
	svc := New(mach, 10_000)
	svc.Register(rt)
	w.Run(1000, nil)
	mach.SetClock(mach.Clock() + 50_000)
	// Detection still reports the hang, but policy suppresses snaps.
	if hung := svc.CheckStatus(); len(hung) != 1 {
		t.Fatalf("hung = %v", hung)
	}
	if len(svc.Snaps) != 0 {
		t.Errorf("%d snaps despite hang policy off", len(svc.Snaps))
	}
}

func TestServiceTelemetryAndStatus(t *testing.T) {
	res := buildApp(t, hangSrc)
	w := vm.NewWorld(1)
	mach := w.NewMachine("host", 0)
	p, rt, err := tbrt.NewProcess(mach, "hung-app", tbrt.Config{Policy: tbrt.DefaultPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	p.Load(res.Module)
	p.StartMain(0)
	svc := New(mach, 10_000)
	svc.Register(rt)

	w.Run(1000, func() bool { return p.Exited })
	svc.CheckStatus() // healthy sweep
	mach.SetClock(mach.Clock() + 50_000)
	svc.CheckStatus() // hung sweep

	reg := svc.Metrics()
	if got := reg.Counter("svc_heartbeats_total", "").Load(); got != 2 {
		t.Errorf("heartbeats = %d, want 2", got)
	}
	if got := reg.Counter("svc_hangs_total", "").Load(); got != 1 {
		t.Errorf("hangs = %d, want 1", got)
	}
	events := reg.FlightRecorder().Events()
	miss := false
	for _, e := range events {
		if e.Kind == "heartbeat-miss" && e.Detail == "hung-app" {
			miss = true
		}
	}
	if !miss {
		t.Errorf("no heartbeat-miss flight event in %v", events)
	}

	// The runtime's own registry counts the hang snap, and sizes it.
	if got := rt.Metrics().Counter("tbrt_snaps_total", "").Load(); got == 0 {
		t.Error("runtime metrics missing the hang snap")
	} else if words := rt.Metrics().Histogram("tbrt_snap_words", "", nil); words.Count() != got || words.Sum() == 0 {
		t.Errorf("tbrt_snap_words observed %d snaps of %d words in all, want %d snaps of some words", words.Count(), words.Sum(), got)
	}
}

// buildNamed compiles and instruments one named MiniC module.
func buildNamed(t *testing.T, name, src string) *core.Result {
	t.Helper()
	mod, err := minic.Compile(name, name+".mc", src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Instrument(mod, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFleetVerifyOnRegister: once two distinct instrumented modules
// are loaded on the machine, registration triggers the cross-module
// verification and the verify_ counters record the outcome.
func TestFleetVerifyOnRegister(t *testing.T) {
	callerSrc := `int main() {
		int req = alloc(64);
		int resp = alloc(64);
		rpc_call(78, req, 8, resp);
		exit(0);
	}`
	serverSrc := `int main() {
		int buf = alloc(64);
		rpc_recv(77, buf, 64);
		rpc_reply(77, 0, buf, 8);
		exit(0);
	}`
	client := buildNamed(t, "client", callerSrc)
	server := buildNamed(t, "server", serverSrc)

	w := vm.NewWorld(1)
	mach := w.NewMachine("host", 0)
	svc := New(mach, 0)

	p1, rt1, err := tbrt.NewProcess(mach, "client-proc", tbrt.Config{Policy: tbrt.DefaultPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p1.Load(client.Module); err != nil {
		t.Fatal(err)
	}
	svc.Register(rt1)
	runs := svc.verify.Runs.Load()
	if runs != 0 {
		t.Fatalf("fleet check ran with a single module loaded (%d runs)", runs)
	}

	p2, rt2, err := tbrt.NewProcess(mach, "server-proc", tbrt.Config{Policy: tbrt.DefaultPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Load(server.Module); err != nil {
		t.Fatal(err)
	}
	svc.Register(rt2)
	if got := svc.verify.Runs.Load(); got != 1 {
		t.Fatalf("fleet runs = %d, want 1", got)
	}
	// Endpoint 78 has no server in the fleet: the run must fail.
	if got := svc.verify.Failed.Load(); got != 1 {
		t.Fatalf("fleet failed runs = %d, want 1", got)
	}
	if got := svc.verify.DiagErrors.Load(); got == 0 {
		t.Fatal("no error diagnostics counted for the unserved endpoint")
	}

	// An explicit re-check reports the same fleet, still broken.
	res := svc.VerifyFleet()
	if res.Ok() || len(res.Modules) != 2 {
		t.Fatalf("VerifyFleet: ok=%v modules=%v", res.Ok(), res.Modules)
	}
}

// TestFleetVerifyCleanPair: a well-formed client/server pair passes
// the load-time check and counts as a clean run.
func TestFleetVerifyCleanPair(t *testing.T) {
	callerSrc := `int main() {
		int req = alloc(64);
		int resp = alloc(64);
		rpc_call(77, req, 8, resp);
		exit(0);
	}`
	serverSrc := `int main() {
		int buf = alloc(64);
		rpc_recv(77, buf, 64);
		rpc_reply(77, 0, buf, 8);
		exit(0);
	}`
	client := buildNamed(t, "client", callerSrc)
	server := buildNamed(t, "server", serverSrc)

	w := vm.NewWorld(1)
	mach := w.NewMachine("host", 0)
	svc := New(mach, 0)
	for i, res := range []*core.Result{client, server} {
		name := []string{"client-proc", "server-proc"}[i]
		p, rt, err := tbrt.NewProcess(mach, name, tbrt.Config{Policy: tbrt.DefaultPolicy()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Load(res.Module); err != nil {
			t.Fatal(err)
		}
		svc.Register(rt)
	}
	if got := svc.verify.Clean.Load(); got != 1 {
		t.Fatalf("fleet clean runs = %d, want 1", got)
	}
	if got := svc.verify.Failed.Load(); got != 0 {
		t.Fatalf("fleet failed runs = %d, want 0", got)
	}
}

// TestFleetVerifyRunsPerModulePasses: a module that breaks no
// cross-module rule but fails a per-module pass (a heavyweight probe
// word with a path bit preset) still fails the registration check.
func TestFleetVerifyRunsPerModulePasses(t *testing.T) {
	callerSrc := `int main() {
		int req = alloc(64);
		int resp = alloc(64);
		rpc_call(77, req, 8, resp);
		exit(0);
	}`
	serverSrc := `int main() {
		int buf = alloc(64);
		rpc_recv(77, buf, 64);
		rpc_reply(77, 0, buf, 8);
		exit(0);
	}`
	client := buildNamed(t, "client", callerSrc)
	server := buildNamed(t, "server", serverSrc)
	server.Module.Code[server.Module.DAGFixups[0]].Imm |= 1

	w := vm.NewWorld(1)
	mach := w.NewMachine("host", 0)
	svc := New(mach, 0)
	for i, res := range []*core.Result{client, server} {
		name := []string{"client-proc", "server-proc"}[i]
		p, rt, err := tbrt.NewProcess(mach, name, tbrt.Config{Policy: tbrt.DefaultPolicy()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Load(res.Module); err != nil {
			t.Fatal(err)
		}
		svc.Register(rt)
	}
	if got := svc.verify.Failed.Load(); got != 1 {
		t.Fatalf("failed verification runs = %d, want 1", got)
	}
}
