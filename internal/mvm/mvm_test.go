package mvm

import (
	"testing"

	"traceback/internal/recon"
	"traceback/internal/snap"
	"traceback/internal/trace"
	"traceback/internal/vm"
)

func newVM(t *testing.T) *VM {
	t.Helper()
	w := vm.NewWorld(9)
	mach := w.NewMachine("jhost", 0)
	v, err := New(mach, nil, "jvm", RuntimeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// sumMod builds: int sum(n) { s=0; for i in 1..n: s+=i; return s }
// main(n) { return sum(n); }
func sumMod() *Module {
	b := NewBuilder("App", "App.java")
	mb := b.Method("sum", 1, 3) // locals: n, s, i
	mb.Line(10).I(CONST, 0).I(STOREL, 1, 0)
	mb.Line(11).I(CONST, 1).I(STOREL, 2, 0)
	mb.Label("loop")
	mb.Line(12).I(LOADL, 2, 0).I(LOADL, 0, 0).I(CMPLE).Br(IFZ, "end")
	mb.Line(13).I(LOADL, 1, 0).I(LOADL, 2, 0).I(ADD).I(STOREL, 1, 0)
	mb.Line(14).I(LOADL, 2, 0).I(CONST, 1).I(ADD).I(STOREL, 2, 0).Br(GOTO, "loop")
	mb.Label("end")
	mb.Line(15).I(LOADL, 1, 0).I(RET)
	mb.Done()

	mm := b.Method("main", 1, 1)
	mm.Line(20).I(LOADL, 0, 0).I(CALL, 0).I(RET)
	mm.Done()
	return b.MustBuild()
}

func TestInterpreterSum(t *testing.T) {
	v := newVM(t)
	if _, err := v.Load(sumMod()); err != nil {
		t.Fatal(err)
	}
	th, err := v.Start("main", 100)
	if err != nil {
		t.Fatal(err)
	}
	res, err := v.Join(th, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res != 5050 {
		t.Errorf("sum(100) = %d, want 5050", res)
	}
}

func TestArithmeticExceptionCaught(t *testing.T) {
	b := NewBuilder("Exc", "Exc.java")
	mb := b.Method("main", 1, 1)
	mb.Label("try")
	mb.Line(5).I(CONST, 10).I(LOADL, 0, 0).I(DIV).I(RET)
	mb.Label("tryEnd")
	mb.Label("handler")
	mb.Line(8).I(POP).I(CONST, -1).I(RET)
	mb.Catch("try", "tryEnd", "handler", ExcArith)
	mb.Done()
	m := b.MustBuild()

	v := newVM(t)
	v.Load(m)
	th, _ := v.Start("main", 0)
	res, err := v.Join(th, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if res != -1 || th.Uncaught != 0 {
		t.Errorf("res=%d uncaught=%d, want handler result -1", res, th.Uncaught)
	}

	// Division by a nonzero value takes the normal path.
	v2 := newVM(t)
	v2.Load(m)
	th2, _ := v2.Start("main", 2)
	res2, _ := v2.Join(th2, 100000)
	if res2 != 5 {
		t.Errorf("10/2 = %d", res2)
	}
}

func TestUncaughtExceptionKillsThread(t *testing.T) {
	b := NewBuilder("Boom", "Boom.java")
	mb := b.Method("main", 0, 0)
	mb.Line(3).I(CONST, 1).I(CONST, 0).I(DIV).I(RET)
	mb.Done()
	v := newVM(t)
	v.Load(b.MustBuild())
	th, _ := v.Start("main")
	v.Run(100000, nil)
	if th.Uncaught != ExcArith || !v.Exited || v.UncaughtExc != ExcArith {
		t.Errorf("uncaught=%d exited=%v", th.Uncaught, v.Exited)
	}
}

func TestArrayBoundsException(t *testing.T) {
	b := NewBuilder("Arr", "Arr.java")
	mb := b.Method("main", 1, 2)
	mb.Line(2).I(CONST, 4).I(NEWARR).I(STOREL, 1, 0)
	mb.Line(3).I(LOADL, 1, 0).I(LOADL, 0, 0).I(CONST, 7).I(ASTORE)
	mb.Line(4).I(LOADL, 1, 0).I(LOADL, 0, 0).I(ALOAD).I(RET)
	mb.Done()
	m := b.MustBuild()

	v := newVM(t)
	v.Load(m)
	th, _ := v.Start("main", 2)
	if res, err := v.Join(th, 100000); err != nil || res != 7 {
		t.Fatalf("in-bounds: res=%d err=%v", res, err)
	}
	v2 := newVM(t)
	v2.Load(m)
	th2, _ := v2.Start("main", 9)
	v2.Run(100000, nil)
	if th2.Uncaught != ExcBounds {
		t.Errorf("uncaught = %d, want ArrayIndexOutOfBounds", th2.Uncaught)
	}
}

func TestNullAndNegSize(t *testing.T) {
	b := NewBuilder("N", "N.java")
	mb := b.Method("nullref", 0, 0)
	mb.Line(2).I(CONST, 0).I(CONST, 0).I(ALOAD).I(RET)
	mb.Done()
	mb2 := b.Method("negsize", 0, 0)
	mb2.Line(5).I(CONST, -3).I(NEWARR).I(RET)
	mb2.Done()
	m := b.MustBuild()
	for name, want := range map[string]int{"nullref": ExcNull, "negsize": ExcNegSize} {
		v := newVM(t)
		v.Load(m)
		th, err := v.Start(name)
		if err != nil {
			t.Fatal(err)
		}
		v.Run(100000, nil)
		if th.Uncaught != want {
			t.Errorf("%s: uncaught = %d, want %d", name, th.Uncaught, want)
		}
	}
}

func TestNegativeSleepThrows(t *testing.T) {
	b := NewBuilder("S", "S.java")
	mb := b.Method("main", 0, 0)
	mb.Line(2).I(RANDB).I(CONST, 100).I(MOD).I(CONST, 200).I(SUB).I(SLEEPB).I(CONST, 0).I(RET)
	mb.Done()
	v := newVM(t)
	v.Load(b.MustBuild())
	th, _ := v.Start("main")
	v.Run(100000, nil)
	if th.Uncaught != ExcIllegalArg {
		t.Errorf("uncaught = %d, want IllegalArgumentException", th.Uncaught)
	}
}

func TestInstrumentedTraceReconstructs(t *testing.T) {
	inst, mf, err := Instrument(sumMod(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !mf.Managed {
		t.Error("managed mapfile not marked")
	}
	v := newVM(t)
	if _, err := v.Load(inst); err != nil {
		t.Fatal(err)
	}
	th, _ := v.Start("main", 5)
	res, err := v.Join(th, 1_000_000)
	if err != nil || res != 15 {
		t.Fatalf("instrumented sum(5) = %d, err=%v", res, err)
	}
	s := v.Runtime().TakeSnap("api test")
	pt, err := recon.Reconstruct(s, recon.NewMapSet(mf))
	if err != nil {
		t.Fatal(err)
	}
	tt, ok := pt.ThreadByTID(1)
	if !ok {
		t.Fatal("no managed thread trace")
	}
	// Lines 10..15 (sum body) and 20 (main) all appear; the loop
	// lines repeat.
	seen := map[uint32]int{}
	for _, e := range tt.Events {
		if e.Kind == recon.EvLine {
			seen[e.Line] += e.Repeat + 1
		}
	}
	for _, line := range []uint32{10, 11, 12, 13, 14, 15, 20} {
		if seen[line] == 0 {
			t.Errorf("line %d missing from managed trace (have %v)", line, seen)
		}
	}
	if seen[13] < 5 {
		t.Errorf("loop body line executed %d times in trace, want >= 5", seen[13])
	}
}

func TestManagedExceptionLineAccuracy(t *testing.T) {
	// Two divisions on different lines in one block: the exception
	// record must name the right line (the whole point of
	// line-boundary probes, paper §2.4).
	b := NewBuilder("L", "L.java")
	mb := b.Method("main", 1, 2)
	mb.Line(3).I(CONST, 100).I(CONST, 2).I(DIV).I(STOREL, 1, 0)
	mb.Line(4).I(CONST, 100).I(LOADL, 0, 0).I(DIV).I(STOREL, 1, 0)
	mb.Line(5).I(LOADL, 1, 0).I(RET)
	mb.Done()
	inst, mf, err := Instrument(b.MustBuild(), 0)
	if err != nil {
		t.Fatal(err)
	}
	v := newVM(t)
	v.Load(inst)
	th, _ := v.Start("main", 0) // faults on line 4
	v.Run(100000, nil)
	if th.Uncaught != ExcArith {
		t.Fatal("expected fault")
	}
	s := v.Runtime().TakeSnap("post")
	pt, err := recon.Reconstruct(s, recon.NewMapSet(mf))
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
	if fault == nil || fault.Line != 4 {
		t.Errorf("fault = %+v, want line 4", fault)
	}
}

// TestManagedBufferWraps runs one thread through more one-word loop
// records than a managed buffer holds: the writer wraps past its
// start, committing sub-buffers on the way.
func TestManagedBufferWraps(t *testing.T) {
	inst, mf, err := Instrument(sumMod(), 0)
	if err != nil {
		t.Fatal(err)
	}
	v := newVM(t)
	v.Load(inst)
	th, _ := v.Start("main", 11000)
	if _, err := v.Join(th, 5_000_000); err != nil {
		t.Fatal(err)
	}
	s := v.Runtime().TakeSnap("post")
	// The thread took the pool's first buffer. 11,000 records fill its
	// four sub-buffers and run past the first one again, so sub 0 is
	// the last committed (the never-committed marker is sub 3).
	d := s.Buffers[0]
	if d.Kind != snap.BufMain || d.SubWords == 0 {
		t.Fatalf("first buffer: kind %v, %d words per sub-buffer; want a sub-buffered main buffer", d.Kind, d.SubWords)
	}
	if d.CommittedSub != 0 {
		t.Errorf("committed sub-buffer %d, want 0", d.CommittedSub)
	}
	pt, err := recon.Reconstruct(s, recon.NewMapSet(mf))
	if err != nil {
		t.Fatal(err)
	}
	tt, _ := pt.ThreadByTID(1)
	if !tt.Truncated {
		t.Error("wrapped managed buffer not marked truncated")
	}
	if len(tt.Events) == 0 {
		t.Error("no events from wrapped managed buffer")
	}
}

// TestManagedThreadsReuseBuffers runs twelve short managed threads one
// after another: each ending thread returns its buffer to the pool,
// so the snap holds the pool and no more, the desperation buffer stays
// untouched, and every thread reconstructs from its share of the
// reused buffers.
func TestManagedThreadsReuseBuffers(t *testing.T) {
	inst, mf, err := Instrument(sumMod(), 0)
	if err != nil {
		t.Fatal(err)
	}
	v := newVM(t)
	v.Load(inst)
	const threads = 12
	for n := 1; n <= threads; n++ {
		th, _ := v.Start("main", int64(n))
		if _, err := v.Join(th, 100_000); err != nil {
			t.Fatal(err)
		}
	}
	s := v.Runtime().TakeSnap("post")
	mains := 0
	for _, d := range s.Buffers {
		switch d.Kind {
		case snap.BufMain:
			mains++
		case snap.BufDesperation:
			for i, w := range d.Words() {
				if w != trace.Invalid && w != trace.Sentinel {
					t.Fatalf("desperation buffer word %d = %#x, want untouched", i, w)
				}
			}
		}
	}
	if mains > managedBuffers.Buffers {
		t.Errorf("%d main buffers in the snap, want at most the pool's %d", mains, managedBuffers.Buffers)
	}
	pt, err := recon.Reconstruct(s, recon.NewMapSet(mf))
	if err != nil {
		t.Fatal(err)
	}
	// Thread n ran sum(n): n passes through the loop body, line 13.
	for n := 1; n <= threads; n++ {
		tt, ok := pt.ThreadByTID(uint32(n))
		if !ok {
			t.Errorf("thread %d not reconstructed", n)
			continue
		}
		body := 0
		for _, e := range tt.Events {
			if e.Kind == recon.EvLine && e.Line == 13 {
				body++
			}
		}
		if body != n {
			t.Errorf("thread %d: %d executions of line 13, want %d", n, body, n)
		}
	}
}

func TestSnapOnUncaught(t *testing.T) {
	b := NewBuilder("U", "U.java")
	mb := b.Method("main", 0, 0)
	mb.Line(7).I(CONST, 1).I(CONST, 0).I(DIV).I(RET)
	mb.Done()
	inst, _, err := Instrument(b.MustBuild(), 0)
	if err != nil {
		t.Fatal(err)
	}
	w := vm.NewWorld(9)
	mach := w.NewMachine("jhost", 0)
	v, err := New(mach, nil, "jvm", RuntimeConfig{SnapOnUncaught: true})
	if err != nil {
		t.Fatal(err)
	}
	v.Load(inst)
	v.Start("main")
	v.Run(100000, nil)
	if len(v.Runtime().Snaps()) != 1 {
		t.Fatalf("%d snaps, want 1", len(v.Runtime().Snaps()))
	}
}

func TestInstrumentationOverheadModest(t *testing.T) {
	run := func(m *Module) uint64 {
		w := vm.NewWorld(9)
		mach := w.NewMachine("jhost", 0)
		v, err := New(mach, nil, "jvm", RuntimeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		v.Load(m)
		th, _ := v.Start("main", 2000)
		if _, err := v.Join(th, 10_000_000); err != nil {
			t.Fatal(err)
		}
		return v.Cycles
	}
	base := run(sumMod())
	inst, _, err := Instrument(sumMod(), 0)
	if err != nil {
		t.Fatal(err)
	}
	instc := run(inst)
	ratio := float64(instc) / float64(base)
	// Paper Table 3: managed overhead sits in the 1.16-1.25 band —
	// allow a generous envelope.
	if ratio < 1.02 || ratio > 1.6 {
		t.Errorf("managed overhead = %.3f, want within [1.02, 1.6]", ratio)
	}
	t.Logf("managed overhead: %.3f", ratio)
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder("Bad", "Bad.java")
	mb := b.Method("main", 0, 0)
	mb.Br(GOTO, "nowhere")
	mb.Done()
	if _, err := b.Build(); err == nil {
		t.Error("undefined label accepted")
	}
	b2 := NewBuilder("Bad2", "Bad2.java")
	mb2 := b2.Method("main", 0, 0)
	mb2.I(LOADL, 5, 0).I(RET)
	mb2.Done()
	if _, err := b2.Build(); err == nil {
		t.Error("out-of-range local accepted")
	}
}

func TestProbeRecordsWellFormed(t *testing.T) {
	inst, _, err := Instrument(sumMod(), 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, me := range inst.Methods {
		if me.Code[0].Op != PROBEH {
			t.Errorf("%s does not start with a heavyweight probe", me.Name)
		}
		for _, in := range me.Code {
			if in.Op == PROBEH {
				w := uint32(in.Imm)
				if !trace.IsDAG(w) {
					t.Errorf("PROBEH immediate %#x is not a DAG word", w)
				}
			}
			if in.Op == PROBEL && uint32(in.Imm)&^uint32(trace.PathMask) != 0 {
				t.Errorf("PROBEL bit %#x outside path mask", in.Imm)
			}
		}
	}
}
