// Package integration_test exercises the whole TraceBack pipeline:
// MiniC source -> compiled module -> static instrumentation -> VM
// execution with the runtime attached -> snap -> reconstruction ->
// rendered source trace. These are the "does first fault diagnosis
// actually work" tests.
package integration_test

import (
	"strings"
	"testing"

	"traceback/internal/core"
	"traceback/internal/minic"
	"traceback/internal/module"
	"traceback/internal/recon"
	"traceback/internal/scenario"
	"traceback/internal/snap"
	"traceback/internal/tbrt"
	"traceback/internal/vm"
)

// launchApp launches mods, in load order, as the one process "app" of
// a world seeded seed, with main(arg) started; a nil cfg runs it
// uninstrumented.
func launchApp(t *testing.T, seed int64, cfg *tbrt.Config, arg uint64, mods ...*module.Module) *scenario.Setup {
	t.Helper()
	s, err := scenario.Launch(scenario.Spec{
		Seed:     seed,
		Machines: []scenario.MachineSpec{{Name: "host"}},
		Procs:    []scenario.ProcSpec{{Role: "app", Modules: mods, Config: cfg, Arg: arg}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runApp runs s and fails t unless its "app" exits without a signal.
func runApp(t *testing.T, s *scenario.Setup) *vm.Process {
	t.Helper()
	s.Run(50_000_000)
	p := s.Procs["app"]
	if !p.Exited || p.FatalSignal != 0 {
		t.Fatalf("app did not exit cleanly (exited %v, signal %s)", p.Exited, vm.SignalName(p.FatalSignal))
	}
	return p
}

// pipeline compiles src, instruments it, runs it, and reconstructs.
func pipeline(t *testing.T, src string, arg uint64, cfg tbrt.Config) (*recon.ProcessTrace, *vm.Process, *tbrt.Runtime) {
	t.Helper()
	mod, err := minic.Compile("app", "app.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Instrument(mod, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := launchApp(t, 21, &cfg, arg, res.Module)
	s.Run(20_000_000)
	p, rt := s.Procs["app"], s.Runtimes["app"]
	var sn *snap.Snap
	if snaps := rt.Snaps(); len(snaps) > 0 {
		sn = snaps[0]
	} else {
		sn = rt.PostMortemSnap()
	}
	pt, err := recon.Reconstruct(sn, recon.NewMapSet(res.Map))
	if err != nil {
		t.Fatal(err)
	}
	return pt, p, rt
}

// TestCrashTraceShowsPathToFault: the canonical first-fault scenario.
// A function corrupts state long before the crash; the trace shows
// the whole path, ending exactly at the faulting line.
func TestCrashTraceShowsPathToFault(t *testing.T) {
	src := `int denom;
int setup(int mode) {
	if (mode == 1) {
		denom = 0;
	} else {
		denom = 4;
	}
	return 0;
}
int compute(int x) {
	int r = x / denom;
	return r;
}
int main() {
	setup(getarg());
	int v = compute(12);
	print_int(v);
	exit(0);
}`
	pt, p, _ := pipeline(t, src, 1, tbrt.Config{Policy: tbrt.DefaultPolicy()})
	if p.FatalSignal != vm.SigFpe {
		t.Fatalf("signal = %s, want SIGFPE", vm.SignalName(p.FatalSignal))
	}
	tt, ok := pt.ThreadByTID(1)
	if !ok {
		t.Fatal("no thread trace")
	}
	if !tt.Faulted {
		t.Error("trace not marked faulted")
	}
	// The trace must show: main called setup, the mode==1 arm ran
	// (denom = 0 on line 4), and the fault is on line 11 (x / denom).
	var sawDenomZero, sawFaultLine bool
	var faultEv *recon.Event
	for i := range tt.Events {
		e := &tt.Events[i]
		if e.Kind != recon.EvLine {
			continue
		}
		if e.Line == 4 && e.Func == "setup" {
			sawDenomZero = true
		}
		if e.Fault {
			faultEv = e
		}
		if e.Line == 11 && e.Func == "compute" {
			sawFaultLine = true
		}
	}
	if !sawDenomZero {
		t.Error("trace does not show the denom=0 assignment that caused the fault")
	}
	if !sawFaultLine {
		t.Error("trace does not reach the faulting line")
	}
	if faultEv == nil || faultEv.Line != 11 {
		t.Errorf("fault marked at %+v, want line 11", faultEv)
	}
	// The healthy path (else arm, line 6) must NOT appear.
	for _, e := range tt.Events {
		if e.Kind == recon.EvLine && e.Line == 6 {
			t.Error("trace shows the arm that did not execute")
		}
	}
}

// TestHealthyRunTakesOtherArm: same program, mode 0: the else arm
// shows and no fault occurs.
func TestHealthyRunTakesOtherArm(t *testing.T) {
	src := `int denom;
int setup(int mode) {
	if (mode == 1) {
		denom = 0;
	} else {
		denom = 4;
	}
	return 0;
}
int main() {
	setup(getarg());
	exit(12 / denom);
}`
	pt, p, _ := pipeline(t, src, 0, tbrt.Config{})
	if p.FatalSignal != 0 || p.ExitCode != 3 {
		t.Fatalf("sig=%s exit=%d", vm.SignalName(p.FatalSignal), p.ExitCode)
	}
	tt, _ := pt.ThreadByTID(1)
	saw4, saw6 := false, false
	for _, e := range tt.Events {
		if e.Kind == recon.EvLine && e.Line == 4 {
			saw4 = true
		}
		if e.Kind == recon.EvLine && e.Line == 6 {
			saw6 = true
		}
	}
	if saw4 || !saw6 {
		t.Errorf("arms: line4=%v line6=%v, want only the else arm", saw4, saw6)
	}
}

// TestRecursionDepthInTrace: recursive calls nest in the call
// hierarchy and unwind correctly.
func TestRecursionDepthInTrace(t *testing.T) {
	src := `int f(int n) {
	if (n == 0) return 0;
	return f(n - 1);
}
int main() {
	f(3);
	exit(0);
}`
	pt, _, _ := pipeline(t, src, 0, tbrt.Config{})
	tt, _ := pt.ThreadByTID(1)
	maxDepth := 0
	for _, e := range tt.Events {
		if e.Depth > maxDepth {
			maxDepth = e.Depth
		}
	}
	// main at depth 1, f(3)..f(0) at depths 2..5.
	if maxDepth != 5 {
		t.Errorf("max depth = %d, want 5", maxDepth)
	}
	// The final event of the trace should be back at main's depth.
	var lastLine *recon.Event
	for i := range tt.Events {
		if tt.Events[i].Kind == recon.EvLine {
			lastLine = &tt.Events[i]
		}
	}
	if lastLine == nil || lastLine.Depth != 1 {
		t.Errorf("last line depth = %+v, want 1", lastLine)
	}
}

// TestMultiThreadedTraces: each thread gets its own history; the
// interleaved view contains both.
func TestMultiThreadedTraces(t *testing.T) {
	src := `int work(int n) {
	int s = 0;
	for (int i = 0; i < n; i = i + 1) s = s + i;
	return s;
}
int worker() {
	return work(getarg() + 10);
}
int main() {
	int t1 = thread_create(&worker, 5);
	int t2 = thread_create(&worker, 9);
	int a = join(t1);
	int b = join(t2);
	exit(a + b);
}`
	pt, p, _ := pipeline(t, src, 0, tbrt.Config{})
	if p.FatalSignal != 0 {
		t.Fatalf("faulted: %s", vm.SignalName(p.FatalSignal))
	}
	tids := map[uint32]bool{}
	for _, tt := range pt.Threads {
		if len(tt.Events) > 0 {
			tids[tt.TID] = true
		}
	}
	for _, tid := range []uint32{1, 2, 3} {
		if !tids[tid] {
			t.Errorf("no trace for thread %d (have %v)", tid, tids)
		}
	}
	merged := recon.Interleave(pt.Threads)
	if len(merged) < 10 {
		t.Errorf("interleaved view has only %d events", len(merged))
	}
}

// TestSwitchViaJumpTable: a dense switch compiles to a JTAB; its
// multiway targets are DAG headers and the taken case reconstructs.
func TestSwitchViaJumpTable(t *testing.T) {
	src := `int main() {
	int r = 0;
	switch (getarg()) {
	case 0: r = 10;
	case 1: r = 20;
	case 2: r = 30;
	case 3: r = 40;
	}
	exit(r);
}`
	pt, p, _ := pipeline(t, src, 2, tbrt.Config{})
	if p.ExitCode != 30 {
		t.Fatalf("exit = %d, want 30", p.ExitCode)
	}
	tt, _ := pt.ThreadByTID(1)
	saw5 := false
	for _, e := range tt.Events {
		if e.Kind == recon.EvLine && e.Line == 6 { // case 2 line
			saw5 = true
		}
		if e.Kind == recon.EvLine && (e.Line == 4 || e.Line == 5 || e.Line == 7) {
			// Lines of cases 0, 1, 3: only the header lines of the
			// switch may repeat; the assignments must not appear.
			if strings.Contains(e.Note, "call") {
				continue
			}
			t.Errorf("untaken case line %d in trace", e.Line)
		}
	}
	if !saw5 {
		t.Error("taken case line missing from trace")
	}
}

// TestMemcpyOverrunThenWildCrash reproduces the Fidelity scenario
// (paper §6.1): a memcpy overruns a buffer, corrupting a neighboring
// structure; the crash comes much later, but the trace still shows
// the overrun site within its history.
func TestMemcpyOverrunThenWildCrash(t *testing.T) {
	src := `int header[4];
int table[4];
int copy_blob(int src, int n) {
	memcpy(&header, src, n);
	return 0;
}
int lookup(int i) {
	int f = table[0];
	return f(i);
}
int main() {
	table[0] = &step;
	int blob = alloc(128);
	for (int i = 0; i < 16; i = i + 1) poke(blob + i * 8, 1000000 + i);
	copy_blob(blob, 96);
	exit(lookup(3));
}
int step(int x) { return x + 1; }`
	pt, p, _ := pipeline(t, src, 0, tbrt.Config{Policy: tbrt.DefaultPolicy()})
	// The overrun smashed table[0]; the indirect call goes wild.
	if p.FatalSignal != vm.SigSegv {
		t.Fatalf("signal = %s, want SIGSEGV from the wild call", vm.SignalName(p.FatalSignal))
	}
	tt, _ := pt.ThreadByTID(1)
	sawMemcpy := false
	for _, e := range tt.Events {
		if e.Kind == recon.EvLine && e.Func == "copy_blob" {
			sawMemcpy = true
		}
	}
	if !sawMemcpy {
		t.Error("trace history does not include the memcpy overrun site")
	}
}

// TestNegativeSleepException reproduces the Oracle scenario (paper
// §6.1): sleep() fed from a random source throws on a negative value;
// the trace shows the call site.
func TestNegativeSleepException(t *testing.T) {
	src := `int snooze(int d) {
	sleep(d);
	return 0;
}
int main() {
	int r = rand() % 100 - 200;
	snooze(r);
	exit(0);
}`
	pt, p, _ := pipeline(t, src, 0, tbrt.Config{Policy: tbrt.DefaultPolicy()})
	if p.FatalSignal != vm.SigArg {
		t.Fatalf("signal = %s, want SIGARG", vm.SignalName(p.FatalSignal))
	}
	tt, _ := pt.ThreadByTID(1)
	var fault *recon.Event
	for i := range tt.Events {
		if tt.Events[i].Fault {
			fault = &tt.Events[i]
		}
	}
	if fault == nil || fault.Func != "snooze" || fault.Line != 2 {
		t.Errorf("fault = %+v, want line 2 in snooze", fault)
	}
}

// TestRenderEndToEnd: the rendered trace is human-usable: shows the
// fault, the source positions, and the call hierarchy.
func TestRenderEndToEnd(t *testing.T) {
	src := `int boom() {
	int z = 0;
	return 1 / z;
}
int main() {
	boom();
	exit(0);
}`
	pt, _, _ := pipeline(t, src, 0, tbrt.Config{Policy: tbrt.DefaultPolicy()})
	var sb strings.Builder
	recon.Render(&sb, pt, recon.RenderOptions{})
	out := sb.String()
	for _, want := range []string{"exception SIGFPE", "app.mc:3", "app.mc:6", "call boom"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered trace missing %q:\n%s", want, out)
		}
	}
}

// TestDynamicModuleLoadAndTrace: a module loaded at runtime via the
// loader hook is rebased and traced like any other.
func TestDynamicModuleLoadAndTrace(t *testing.T) {
	libSrc := `int transform(int x) { return x * 3 + 1; }`
	appSrc := `extern "plugin" int transform(int x);
int main() {
	exit(transform(5));
}`
	lib, err := minic.Compile("plugin", "plugin.mc", libSrc)
	if err != nil {
		t.Fatal(err)
	}
	app, err := minic.Compile("app", "app.mc", appSrc)
	if err != nil {
		t.Fatal(err)
	}
	libRes, err := core.Instrument(lib, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	appRes, err := core.Instrument(app, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := launchApp(t, 2, &tbrt.Config{}, 0, libRes.Module, appRes.Module)
	p := runApp(t, s)
	if p.ExitCode != 16 {
		t.Fatalf("exit = %d, want 16", p.ExitCode)
	}
	pt, err := recon.Reconstruct(s.Runtimes["app"].PostMortemSnap(), recon.NewMapSet(libRes.Map, appRes.Map))
	if err != nil {
		t.Fatal(err)
	}
	tt, _ := pt.ThreadByTID(1)
	sawPlugin := false
	for _, e := range tt.Events {
		if e.Kind == recon.EvLine && e.Module == "plugin" {
			sawPlugin = true
		}
	}
	if !sawPlugin {
		t.Error("cross-module trace missing the plugin's lines")
	}
}

// TestUninstrumentedCalleeAttribution (paper §2.4): an exception
// inside an UNINSTRUMENTED callee is attributed to the instrumented
// call site that led there.
func TestUninstrumentedCalleeAttribution(t *testing.T) {
	libSrc := `int risky(int x) {
	int z = 0;
	return x / z;
}`
	appSrc := `extern "rawlib" int risky(int x);
int safe_so_far() {
	return risky(7);
}
int main() {
	safe_so_far();
	exit(0);
}`
	lib, err := minic.Compile("rawlib", "rawlib.mc", libSrc)
	if err != nil {
		t.Fatal(err)
	}
	app, err := minic.Compile("app", "app.mc", appSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Only the app is instrumented; rawlib runs native/untraced.
	appRes, err := core.Instrument(app, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	setup := launchApp(t, 2, &tbrt.Config{Policy: tbrt.DefaultPolicy()}, 0, lib, appRes.Module)
	setup.Run(1_000_000)
	if p := setup.Procs["app"]; p.FatalSignal != vm.SigFpe {
		t.Fatalf("signal = %s", vm.SignalName(p.FatalSignal))
	}
	var s *snap.Snap
	if sn := setup.Runtimes["app"].Snaps(); len(sn) > 0 {
		s = sn[0]
	}
	pt, err := recon.Reconstruct(s, recon.NewMapSet(appRes.Map))
	if err != nil {
		t.Fatal(err)
	}
	tt, _ := pt.ThreadByTID(1)
	var fault *recon.Event
	for i := range tt.Events {
		if tt.Events[i].Fault {
			fault = &tt.Events[i]
		}
	}
	// The fault attributes to app.mc line 3 — the risky(7) call.
	if fault == nil || fault.File != "app.mc" || fault.Line != 3 {
		t.Errorf("fault = %+v, want the call at app.mc:3", fault)
	}
}

// TestOverheadSanity: instrumentation costs cycles but not
// correctness, and overhead lands in a plausible band.
func TestOverheadSanity(t *testing.T) {
	src := `int main() {
	int s = 0;
	for (int i = 0; i < 20000; i = i + 1) {
		if (i % 3 == 0) s = s + i;
		else s = s - 1;
	}
	exit(s % 251);
}`
	mod, err := minic.Compile("bench", "bench.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	runCycles := func(m *module.Module, cfg *tbrt.Config) (uint64, int) {
		p := runApp(t, launchApp(t, 1, cfg, 0, m))
		return p.Cycles, p.ExitCode
	}
	base, exitA := runCycles(mod, nil)
	res, err := core.Instrument(mod, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inst, exitB := runCycles(res.Module, &tbrt.Config{})
	if exitA != exitB {
		t.Fatalf("instrumentation changed the answer: %d vs %d", exitA, exitB)
	}
	ratio := float64(inst) / float64(base)
	if ratio < 1.05 || ratio > 4.0 {
		t.Errorf("overhead ratio = %.2f, want within [1.05, 4.0]", ratio)
	}
	t.Logf("overhead ratio: %.2f (text growth %.0f%%)", ratio, res.Stats.CodeGrowth()*100)
}
