package mvm_test

import (
	"strings"
	"testing"

	"traceback/internal/core"
	"traceback/internal/minic"
	"traceback/internal/recon"
	"traceback/internal/tbrt"
	"traceback/internal/vm"

	mvm "traceback/internal/mvm"
)

// TestFigure5CrossLanguage reproduces the paper's Figure 5 scenario:
// a managed ("Java") program passes a long string to a native C
// function that has only allocated a 4-character buffer. The memcpy
// smashes the native stack, the return goes wild, and a standard
// debugger would see garbage — but the TraceBack traces from the two
// runtimes show the managed call site and the native path to the
// overrun, stitched into one logical thread.
func TestFigure5CrossLanguage(t *testing.T) {
	// NativeString.c: copy_string copies n bytes into a 4-byte local
	// buffer ("we only get short strings").
	nativeSrc := `int copy_string(int src, int n) {
	int result[1];
	memcpy(&result, src, n);
	return result[0];
}`
	nat, err := minic.Compile("NativeString.c", "NativeString.c", nativeSrc)
	if err != nil {
		t.Fatal(err)
	}
	natRes, err := core.Instrument(nat, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	w := vm.NewWorld(13)
	mach := w.NewMachine("sunbox", 0)
	proc, nrt, err := tbrt.NewProcess(mach, "java", tbrt.Config{Policy: tbrt.DefaultPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proc.Load(natRes.Module); err != nil {
		t.Fatal(err)
	}
	// The "long string" lives in native memory; the managed side
	// passes its address and length across JNI.
	strAddr := proc.AllocRegion(256)
	long := "a much longer string than four characters"
	proc.WriteBytes(uint64(strAddr), []byte(long))

	// NativeString.java: getString() builds the string, main calls
	// native copy_string with it.
	b := mvm.NewBuilder("NativeString.java", "NativeString.java")
	natIdx := b.Native("NativeString.c", "copy_string", 2)
	mb := b.Method("main", 0, 1)
	mb.Line(5).I(mvm.CONST, int32(strAddr)).I(mvm.STOREL, 0, 0)
	mb.Line(6).I(mvm.LOADL, 0, 0).I(mvm.CONST, int32(len(long))).I(mvm.CALLNAT, int32(natIdx)).I(mvm.POP)
	mb.Line(7).I(mvm.CONST, 0).I(mvm.RET)
	mb.Done()
	jmod, jmf, err := mvm.Instrument(b.MustBuild(), 0)
	if err != nil {
		t.Fatal(err)
	}

	jvm, err := mvm.New(mach, proc, "java", mvm.RuntimeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jvm.Load(jmod); err != nil {
		t.Fatal(err)
	}
	th, err := jvm.Start("main")
	if err != nil {
		t.Fatal(err)
	}
	jvm.Run(1_000_000, nil)

	// The native side died of the stack smash.
	if proc.FatalSignal != vm.SigSegv {
		t.Fatalf("native signal = %s, want SIGSEGV (wild return)", vm.SignalName(proc.FatalSignal))
	}
	if th.Uncaught != mvm.ExcNativeDied {
		t.Errorf("managed thread uncaught = %d, want NativeCrashError", th.Uncaught)
	}

	// Both runtimes snapped; reconstruct and stitch.
	if len(nrt.Snaps()) == 0 || len(jvm.Runtime().Snaps()) == 0 {
		t.Fatalf("snaps: native=%d managed=%d", len(nrt.Snaps()), len(jvm.Runtime().Snaps()))
	}
	maps := recon.NewMapSet(natRes.Map, jmf)
	npt, err := recon.Reconstruct(nrt.Snaps()[0], maps)
	if err != nil {
		t.Fatal(err)
	}
	jpt, err := recon.Reconstruct(jvm.Runtime().Snaps()[0], maps)
	if err != nil {
		t.Fatal(err)
	}
	mt := recon.Stitch([]*recon.ProcessTrace{jpt, npt})
	if len(mt.Logical) != 1 {
		t.Fatalf("%d logical threads, want 1", len(mt.Logical))
	}
	lt := mt.Logical[0]

	var sb strings.Builder
	recon.RenderLogical(&sb, lt, recon.RenderOptions{})
	out := sb.String()
	// The stitched trace shows the managed call line and the native
	// source lines up to the memcpy.
	for _, want := range []string{"NativeString.java:6", "NativeString.c:3"} {
		if !strings.Contains(out, want) {
			t.Errorf("stitched trace missing %q:\n%s", want, out)
		}
	}
	// The managed segment comes first (the caller), then the native.
	if lt.Segments[0].Process != "java" {
		t.Errorf("first segment = %q, want the managed caller", lt.Segments[0].Process)
	}
	foundNative := false
	for _, seg := range lt.Segments[1:] {
		for _, e := range seg.Events {
			if e.Kind == recon.EvLine && e.File == "NativeString.c" {
				foundNative = true
			}
		}
	}
	if !foundNative {
		t.Error("native callee's lines missing from the logical thread")
	}
}

// TestJNIHappyPath: a successful native call returns its value to
// managed code and produces four SYNC records across the runtimes.
func TestJNIHappyPath(t *testing.T) {
	nativeSrc := `int add_native(int a, int b) { return a + b; }`
	nat, err := minic.Compile("lib.c", "lib.c", nativeSrc)
	if err != nil {
		t.Fatal(err)
	}
	natRes, err := core.Instrument(nat, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := vm.NewWorld(13)
	mach := w.NewMachine("box", 0)
	proc, nrt, err := tbrt.NewProcess(mach, "app", tbrt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	proc.Load(natRes.Module)

	b := mvm.NewBuilder("App.java", "App.java")
	ni := b.Native("lib.c", "add_native", 2)
	mb := b.Method("main", 0, 0)
	mb.Line(3).I(mvm.CONST, 19).I(mvm.CONST, 23).I(mvm.CALLNAT, int32(ni)).I(mvm.RET)
	mb.Done()
	jmod, jmf, err := mvm.Instrument(b.MustBuild(), 0)
	if err != nil {
		t.Fatal(err)
	}
	jvm, err := mvm.New(mach, proc, "app-jvm", mvm.RuntimeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	jvm.Load(jmod)
	th, _ := jvm.Start("main")
	res, err := jvm.Join(th, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res != 42 {
		t.Errorf("native add = %d, want 42", res)
	}

	maps := recon.NewMapSet(natRes.Map, jmf)
	jpt, err := recon.Reconstruct(jvm.Runtime().TakeSnap("post"), maps)
	if err != nil {
		t.Fatal(err)
	}
	npt, err := recon.Reconstruct(nrt.PostMortemSnap(), maps)
	if err != nil {
		t.Fatal(err)
	}
	syncs := 0
	for _, pt := range []*recon.ProcessTrace{jpt, npt} {
		for _, tt := range pt.Threads {
			for _, e := range tt.Events {
				if e.Kind == recon.EvSync {
					syncs++
				}
			}
		}
	}
	if syncs != 4 {
		t.Errorf("%d SYNC records, want 4 (paper §5.1)", syncs)
	}
	mt := recon.Stitch([]*recon.ProcessTrace{jpt, npt})
	if len(mt.Logical) != 1 {
		t.Errorf("%d logical threads, want 1", len(mt.Logical))
	}
}
