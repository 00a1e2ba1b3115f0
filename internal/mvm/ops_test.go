package mvm

import (
	"strings"
	"testing"

	"traceback/internal/snap"
	"traceback/internal/trace"
	"traceback/internal/vm"
)

func runMain(t *testing.T, m *Module, args ...int64) (*VM, *MThread) {
	t.Helper()
	v := newVM(t)
	if _, err := v.Load(m); err != nil {
		t.Fatal(err)
	}
	th, err := v.Start("main", args...)
	if err != nil {
		t.Fatal(err)
	}
	v.Run(1_000_000, nil)
	return v, th
}

func TestStackOps(t *testing.T) {
	b := NewBuilder("S", "S.java")
	mb := b.Method("main", 0, 0)
	// dup: 5 -> 5 5 -> 25; pop removes a pushed junk value.
	mb.Line(1).I(CONST, 5).I(DUP).I(MUL).I(CONST, 99).I(POP).I(RET)
	mb.Done()
	_, th := runMain(t, b.MustBuild())
	if th.Result != 25 {
		t.Errorf("result = %d, want 25", th.Result)
	}
}

func TestArrLenAndNeg(t *testing.T) {
	b := NewBuilder("A", "A.java")
	mb := b.Method("main", 0, 1)
	mb.Line(1).I(CONST, 7).I(NEWARR).I(STOREL, 0, 0)
	mb.Line(2).I(LOADL, 0, 0).I(ARRLEN).I(NEG).I(RET)
	mb.Done()
	_, th := runMain(t, b.MustBuild())
	if th.Result != -7 {
		t.Errorf("result = %d, want -7", th.Result)
	}
}

func TestPrintOps(t *testing.T) {
	b := NewBuilder("P", "P.java")
	s := b.Str("hello from managed\n")
	mb := b.Method("main", 0, 0)
	mb.Line(1).I(PRINTS, int32(s))
	mb.Line(2).I(CONST, 7).I(PRINT)
	mb.Line(3).I(CONST, 0).I(RET)
	mb.Done()
	v, _ := runMain(t, b.MustBuild())
	out := string(v.Out)
	if !strings.Contains(out, "hello from managed") || !strings.Contains(out, "7") {
		t.Errorf("out = %q", out)
	}
}

func TestThrowExplicit(t *testing.T) {
	b := NewBuilder("T", "T.java")
	mb := b.Method("main", 0, 0)
	mb.Label("try")
	mb.Line(1).I(CONST, 500).I(THROW)
	mb.Label("tryEnd")
	mb.Label("h")
	mb.Line(3).I(RET) // handler returns the exception code
	mb.Catch("try", "tryEnd", "h", 500)
	mb.Done()
	_, th := runMain(t, b.MustBuild())
	if th.Result != 500 || th.Uncaught != 0 {
		t.Errorf("result=%d uncaught=%d", th.Result, th.Uncaught)
	}
}

func TestCatchFilterByCode(t *testing.T) {
	// Handler catches only code 7; code 9 propagates and kills.
	build := func(code int32) *Module {
		b := NewBuilder("F", "F.java")
		mb := b.Method("main", 0, 0)
		mb.Label("try")
		mb.Line(1).I(CONST, code).I(THROW)
		mb.Label("tryEnd")
		mb.Label("h")
		mb.Line(3).I(POP).I(CONST, -5).I(RET)
		mb.Catch("try", "tryEnd", "h", 7)
		mb.Done()
		return b.MustBuild()
	}
	_, th := runMain(t, build(7))
	if th.Result != -5 {
		t.Errorf("caught: result = %d", th.Result)
	}
	_, th2 := runMain(t, build(9))
	if th2.Uncaught != 9 {
		t.Errorf("uncaught = %d, want 9", th2.Uncaught)
	}
}

func TestNestedCatchUnwinding(t *testing.T) {
	// inner() throws; its caller's handler catches.
	b := NewBuilder("N", "N.java")
	inner := b.Method("inner", 0, 0)
	inner.Line(10).I(CONST, 77).I(THROW)
	inner.Done()
	mb := b.Method("main", 0, 0)
	mb.Label("try")
	mb.Line(1).I(CALL, 0).I(RET)
	mb.Label("tryEnd")
	mb.Label("h")
	mb.Line(3).I(RET)
	mb.Catch("try", "tryEnd", "h", 0)
	mb.Done()
	_, th := runMain(t, b.MustBuild())
	if th.Result != 77 || th.Uncaught != 0 {
		t.Errorf("result=%d uncaught=%d, want caught 77", th.Result, th.Uncaught)
	}
}

func TestCallNativeWithoutProcess(t *testing.T) {
	b := NewBuilder("J", "J.java")
	ni := b.Native("lib", "fn", 0)
	mb := b.Method("main", 0, 0)
	mb.Label("try")
	mb.Line(1).I(CALLNAT, int32(ni)).I(RET)
	mb.Label("tryEnd")
	mb.Label("h")
	mb.Line(3).I(RET)
	mb.Catch("try", "tryEnd", "h", ExcNativeDied)
	mb.Done()
	_, th := runMain(t, b.MustBuild()) // VM has no native process
	if th.Result != ExcNativeDied {
		t.Errorf("result = %d, want NativeCrashError caught", th.Result)
	}
}

func TestManagedThreadsIndependent(t *testing.T) {
	inst, _, err := Instrument(sumMod(), 0)
	if err != nil {
		t.Fatal(err)
	}
	w := vm.NewWorld(9)
	mach := w.NewMachine("jhost", 0)
	v, err := New(mach, nil, "jvm", RuntimeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	v.Load(inst)
	t1, _ := v.Start("main", 10)
	t2, _ := v.Start("main", 20)
	v.Run(1_000_000, func() bool { return t1.State == MDone && t2.State == MDone })
	if t1.Result != 55 || t2.Result != 210 {
		t.Errorf("results = %d, %d; want 55, 210", t1.Result, t2.Result)
	}
	// Each thread wrote its own trace buffer of the snap's pool.
	s := v.Runtime().TakeSnap("post")
	written := 0
	for _, d := range s.Buffers {
		if d.Kind == snap.BufMain && d.Words()[0] != trace.Invalid {
			written++
		}
	}
	if written != 2 {
		t.Errorf("%d main buffers written, want 2", written)
	}
}

func TestMethodFallsOffEnd(t *testing.T) {
	// A method with no RET returns 0 implicitly.
	b := NewBuilder("E", "E.java")
	mb := b.Method("main", 0, 0)
	mb.Line(1).I(CONST, 3).I(POP)
	mb.Done()
	_, th := runMain(t, b.MustBuild())
	if th.State != MDone || th.Result != 0 {
		t.Errorf("state=%v result=%d", th.State, th.Result)
	}
}
