package service

import (
	"errors"
	"strings"
	"testing"

	"traceback/internal/archive"
	"traceback/internal/core"
	"traceback/internal/minic"
	"traceback/internal/recon"
	"traceback/internal/snap"
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

func TestExternalSnapOfDeadProcess(t *testing.T) {
	res := buildApp(t, `int main() {
	int i = 0;
	while (1) { i = i + 1; }
	exit(0);
}`)
	w := vm.NewWorld(1)
	mach := w.NewMachine("host", 0)
	p, rt, err := tbrt.NewProcess(mach, "victim", tbrt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p.Load(res.Module)
	p.StartMain(0)
	svc := New(mach, 0)
	svc.Register(rt)
	w.Run(2000, nil)
	mach.KillProcess(p)

	s, err := svc.ExternalSnap("victim")
	if err != nil {
		t.Fatal(err)
	}
	if s == nil || !strings.Contains(s.Reason, "post-mortem") {
		t.Fatalf("snap = %+v", s)
	}
	pt, err := recon.Reconstruct(s, recon.NewMapSet(res.Map))
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, tt := range pt.Threads {
		for _, e := range tt.Events {
			if e.Kind == recon.EvLine {
				lines++
			}
		}
	}
	if lines == 0 {
		t.Error("external snap of dead process recovered nothing")
	}
}

func TestExternalSnapUnknownProcess(t *testing.T) {
	w := vm.NewWorld(1)
	mach := w.NewMachine("host", 0)
	svc := New(mach, 0)
	if _, err := svc.ExternalSnap("nope"); err == nil {
		t.Error("unknown process accepted")
	}
}

func TestGroupSnap(t *testing.T) {
	// Two related processes; one faults; both get snapped.
	faulty := buildApp(t, `int main() {
	int z = 0;
	exit(1 / z);
}`)
	healthyMod, err := minic.Compile("helper", "helper.mc", `int main() {
	int i = 0;
	while (1) { i = i + 1; yield(); }
	exit(0);
}`)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := core.Instrument(healthyMod, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	w := vm.NewWorld(1)
	mach := w.NewMachine("host", 0)
	pf, rtf, err := tbrt.NewProcess(mach, "frontend", tbrt.Config{Policy: tbrt.DefaultPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	pf.Load(faulty.Module)
	ph, rth, err := tbrt.NewProcess(mach, "dbconn", tbrt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ph.Load(healthy.Module)

	svc := New(mach, 0)
	svc.Register(rtf)
	svc.Register(rth)
	svc.Group("frontend", "dbconn")

	pf.StartMain(0)
	ph.StartMain(0)
	w.Run(50_000, func() bool { return pf.Exited })
	if !pf.Exited {
		t.Fatal("faulty process still running")
	}
	// The runtime snapped the faulting process; the group propagation
	// is driven by the service being told about the fault.
	svc.NotifyFault("frontend")
	found := false
	for _, s := range rth.Snaps() {
		if strings.Contains(s.Reason, "group") {
			found = true
		}
	}
	if !found {
		t.Error("related process was not group-snapped")
	}
}

func TestCrossMachineGroupSnap(t *testing.T) {
	app := buildApp(t, `int main() {
	int i = 0;
	while (1) { i = i + 1; yield(); }
	exit(0);
}`)
	w := vm.NewWorld(1)
	m1 := w.NewMachine("m1", 0)
	m2 := w.NewMachine("m2", 0)
	p1, rt1, err := tbrt.NewProcess(m1, "web", tbrt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p1.Load(app.Module)
	p2, rt2, err := tbrt.NewProcess(m2, "db", tbrt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p2.Load(app.Module)
	p1.StartMain(0)
	p2.StartMain(0)
	w.Run(1000, nil)

	s1 := New(m1, 0)
	s1.Register(rt1)
	s2 := New(m2, 0)
	s2.Register(rt2)
	s1.Peer(s2)
	s1.Group("web", "db")

	s1.NotifyFault("web")
	found := false
	for _, s := range rt2.Snaps() {
		if strings.Contains(s.Reason, "group") {
			found = true
		}
	}
	if !found {
		t.Error("cross-machine group snap did not reach the peer")
	}
}

// TestServiceArchivesTriggeredSnaps: with a warehouse ingest as the
// forward sink, every snap the service triggers (hang, external) lands
// in the archive under a reconstructed — not weak — signature, and
// re-triggering the same fault grows the bucket, not the blob set.
func TestServiceArchivesTriggeredSnaps(t *testing.T) {
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

	arch, err := archive.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	maps := recon.NewMapSet(res.Map)
	svc.SetForward(func(sn *snap.Snap) error {
		_, err := arch.Ingest(sn, archive.SignSnap(sn, maps))
		return err
	})

	w.Run(1000, func() bool { return p.Exited })
	mach.SetClock(mach.Clock() + 50_000)
	if hung := svc.CheckStatus(); len(hung) != 1 {
		t.Fatalf("hung = %v", hung)
	}
	if arch.NumBlobs() != 1 {
		t.Fatalf("hang snap not archived: %d blobs", arch.NumBlobs())
	}
	hangBucket := arch.Buckets()[0]
	if hangBucket.Weak {
		t.Errorf("hang snap archived under weak signature %q", hangBucket.Title)
	}

	// An external snap of the same (still hung) process is a distinct
	// snap — same process, later time — and must archive too.
	if _, err := svc.ExternalSnap("hung-app"); err != nil {
		t.Fatal(err)
	}
	if got := len(svc.Snaps); got != 2 {
		t.Fatalf("%d service snaps, want 2", got)
	}
	var total uint64
	for _, b := range arch.Buckets() {
		total += b.Count
	}
	if total != 2 {
		t.Errorf("archive holds %d occurrences, want 2", total)
	}

	// The counter agrees with the archive.
	var sb strings.Builder
	if err := svc.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "svc_forwarded_total 2") {
		t.Errorf("svc_forwarded_total != 2:\n%s", sb.String())
	}
}

// TestServiceArchiveNilMapsDegradesToWeak: a forward sink ingesting
// with no map resolver still preserves evidence, bucketed weakly.
func TestServiceArchiveNilMapsDegradesToWeak(t *testing.T) {
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
	arch, err := archive.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	svc.SetForward(func(sn *snap.Snap) error {
		_, err := arch.Ingest(sn, archive.SignSnap(sn, nil))
		return err
	})

	w.Run(1000, nil)
	mach.SetClock(mach.Clock() + 50_000)
	svc.CheckStatus()
	buckets := arch.Buckets()
	if len(buckets) != 1 || !buckets[0].Weak {
		t.Fatalf("buckets = %+v, want one weak bucket", buckets)
	}
}

// TestServiceForwardsTriggeredSnaps: with a forward hook wired (the
// fleet collection plane), every service-triggered snap is handed off
// and counted; a failing forwarder never loses the snap.
func TestServiceForwardsTriggeredSnaps(t *testing.T) {
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

	var forwarded []*snap.Snap
	svc.SetForward(func(sn *snap.Snap) error {
		forwarded = append(forwarded, sn)
		return nil
	})

	w.Run(1000, func() bool { return p.Exited })
	mach.SetClock(mach.Clock() + 50_000)
	if hung := svc.CheckStatus(); len(hung) != 1 {
		t.Fatalf("hung = %v", hung)
	}
	if len(forwarded) != 1 {
		t.Fatalf("forward hook received %d snap(s), want the hang snap", len(forwarded))
	}
	if forwarded[0] != svc.Snaps[0] {
		t.Error("forwarded snap is not the collected snap")
	}

	var sb strings.Builder
	if err := svc.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "svc_forwarded_total 1") {
		t.Errorf("svc_forwarded_total != 1:\n%s", sb.String())
	}

	// A broken forwarder (full disk, bad spool path) is counted but
	// never costs the snap: it still lands in Snaps.
	svc.SetForward(func(*snap.Snap) error { return errForward })
	if _, err := svc.ExternalSnap("hung-app"); err != nil {
		t.Fatal(err)
	}
	if got := len(svc.Snaps); got != 2 {
		t.Fatalf("%d service snaps, want 2 (snap lost on forward failure)", got)
	}
	sb.Reset()
	if err := svc.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "svc_forward_errors_total 1") {
		t.Errorf("svc_forward_errors_total != 1:\n%s", sb.String())
	}
}

var errForward = errors.New("spool unwritable")

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
