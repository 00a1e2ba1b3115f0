package recon

import (
	"strings"
	"testing"

	"traceback/internal/core"
	"traceback/internal/isa"
	"traceback/internal/module"
	"traceback/internal/snap"
	"traceback/internal/tbrt"
	"traceback/internal/trace"
	"traceback/internal/vm"
)

// fig2 is the paper's Figure 2 program (diamond + RPC-style call).
func fig2() *module.Module {
	return &module.Module{
		Name: "fig2",
		Code: []isa.Instr{
			{Op: isa.BEQ, A: 1, B: 2, Imm: 3}, // 0  line 1
			{Op: isa.MOVI, A: 3, Imm: 1},      // 1  line 2
			{Op: isa.JMP, Imm: 4},             // 2  line 2
			{Op: isa.MOVI, A: 3, Imm: 2},      // 3  line 3
			{Op: isa.CALL, Imm: 8},            // 4  line 4
			{Op: isa.ADD, A: 4, B: 0, C: 3},   // 5  line 5
			{Op: isa.MOVI, A: 1, Imm: 0},      // 6  line 6
			{Op: isa.SYS, Imm: isa.SysExit},   // 7  line 6
			{Op: isa.MOVI, A: 0, Imm: 7},      // 8  line 10 (rpc)
			{Op: isa.RET},                     // 9  line 11
		},
		Funcs: []module.Func{
			{Name: "main", Entry: 0, End: 8, Exported: true},
			{Name: "rpc", Entry: 8, End: 10},
		},
		Files: []string{"fig2.mc"},
		Lines: []module.LineEntry{
			{Index: 0, File: 0, Line: 1}, {Index: 1, File: 0, Line: 2},
			{Index: 3, File: 0, Line: 3}, {Index: 4, File: 0, Line: 4},
			{Index: 5, File: 0, Line: 5}, {Index: 6, File: 0, Line: 6},
			{Index: 8, File: 0, Line: 10}, {Index: 9, File: 0, Line: 11},
		},
	}
}

// runSnap instruments m, runs it to completion (or fault), and
// returns the reconstruction inputs.
func runSnap(t *testing.T, m *module.Module, cfg tbrt.Config, arg uint64) (*snap.Snap, *MapSet, *vm.Process) {
	t.Helper()
	res, err := core.Instrument(m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := vm.NewWorld(3)
	mach := w.NewMachine("host", 0)
	p, rt, err := tbrt.NewProcess(mach, m.Name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Load(res.Module); err != nil {
		t.Fatal(err)
	}
	if _, err := p.StartMain(arg); err != nil {
		t.Fatal(err)
	}
	vm.RunProcess(p, 2_000_000)
	var s *snap.Snap
	if snaps := rt.Snaps(); len(snaps) > 0 {
		s = snaps[0]
	} else {
		s = rt.PostMortemSnap()
	}
	return s, NewMapSet(res.Map), p
}

func lineSeq(tt *ThreadTrace) []uint32 {
	var out []uint32
	for _, e := range tt.Events {
		if e.Kind == EvLine {
			out = append(out, e.Line)
		}
	}
	return out
}

func eqU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFigure4Reconstruction is the paper's Figure 4: the Figure 2
// program's trace buffer reconstructs to the source-line history
// line1, line3 (else arm), line4 (call), rpc body, line5, line6.
func TestFigure4Reconstruction(t *testing.T) {
	s, maps, _ := runSnap(t, fig2(), tbrt.Config{}, 0)
	pt, err := Reconstruct(s, maps)
	if err != nil {
		t.Fatal(err)
	}
	tt, ok := pt.ThreadByTID(1)
	if !ok {
		t.Fatalf("no thread 1 in %d threads", len(pt.Threads))
	}
	want := []uint32{1, 3, 4, 10, 11, 5, 6}
	if got := lineSeq(tt); !eqU32(got, want) {
		t.Fatalf("line sequence = %v, want %v", got, want)
	}
	// The call line must be annotated with its target.
	var callEv, rpcEv *Event
	for i := range tt.Events {
		e := &tt.Events[i]
		if e.Kind == EvLine && e.Line == 4 {
			callEv = e
		}
		if e.Kind == EvLine && e.Line == 10 {
			rpcEv = e
		}
	}
	if callEv == nil || callEv.CallTo != "rpc" {
		t.Errorf("call annotation = %+v", callEv)
	}
	// Call hierarchy: rpc body is one level deeper than main.
	if rpcEv == nil || callEv == nil || rpcEv.Depth != callEv.Depth+1 {
		t.Errorf("depths: call=%d rpc=%d", callEv.Depth, rpcEv.Depth)
	}
	if rpcEv.Func != "rpc" || callEv.Func != "main" {
		t.Errorf("functions: call in %q, body in %q", callEv.Func, rpcEv.Func)
	}
	if tt.Truncated {
		t.Error("short trace wrongly marked truncated")
	}
}

func TestExpandPathDiamond(t *testing.T) {
	d := &module.MapDAG{Blocks: []module.MapBlock{
		{Start: 0, End: 1, Bit: -1, Succs: []int{1, 2}}, // header
		{Start: 1, End: 2, Bit: 0, Succs: []int{3}},     // then-arm
		{Start: 2, End: 3, Bit: 1, Succs: []int{3}},     // else-arm
		{Start: 3, End: 4, Bit: -1},                     // join (implied)
	}}
	if got := ExpandPath(d, 1<<0); !eqInts(got, []int{0, 1, 3}) {
		t.Errorf("then path = %v", got)
	}
	if got := ExpandPath(d, 1<<1); !eqInts(got, []int{0, 2, 3}) {
		t.Errorf("else path = %v", got)
	}
	// No bits: run ended at the header (left the DAG immediately).
	if got := ExpandPath(d, 0); !eqInts(got, []int{0}) {
		t.Errorf("empty path = %v", got)
	}
}

func TestExpandPathNestedJoin(t *testing.T) {
	// header -> {A, B}; A -> {C, D}; B -> C; C and D exit.
	d := &module.MapDAG{Blocks: []module.MapBlock{
		{Start: 0, End: 1, Bit: -1, Succs: []int{1, 2}},
		{Start: 1, End: 2, Bit: 0, Succs: []int{3, 4}}, // A
		{Start: 2, End: 3, Bit: 1, Succs: []int{3}},    // B
		{Start: 3, End: 4, Bit: 2},                     // C
		{Start: 4, End: 5, Bit: 3},                     // D
	}}
	if got := ExpandPath(d, 1<<0|1<<3); !eqInts(got, []int{0, 1, 4}) {
		t.Errorf("A,D path = %v", got)
	}
	if got := ExpandPath(d, 1<<1|1<<2); !eqInts(got, []int{0, 2, 3}) {
		t.Errorf("B,C path = %v", got)
	}
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestExceptionTrimming: the trace must end at the exact faulting
// source line, not at the end of the faulting basic block (paper
// §4.2).
func TestExceptionTrimming(t *testing.T) {
	m := &module.Module{
		Name: "trim",
		Code: []isa.Instr{
			{Op: isa.MOVI, A: 1, Imm: 4},    // 0 line 1
			{Op: isa.MOVI, A: 2, Imm: 0},    // 1 line 2
			{Op: isa.DIV, A: 3, B: 1, C: 2}, // 2 line 3  <- faults
			{Op: isa.MOVI, A: 4, Imm: 5},    // 3 line 4  (same block, never runs)
			{Op: isa.MOVI, A: 1, Imm: 0},    // 4 line 5
			{Op: isa.SYS, Imm: isa.SysExit}, // 5 line 5
		},
		Funcs: []module.Func{{Name: "main", Entry: 0, End: 6, Exported: true}},
		Files: []string{"trim.mc"},
		Lines: []module.LineEntry{
			{Index: 0, File: 0, Line: 1}, {Index: 1, File: 0, Line: 2},
			{Index: 2, File: 0, Line: 3}, {Index: 3, File: 0, Line: 4},
			{Index: 4, File: 0, Line: 5},
		},
	}
	s, maps, p := runSnap(t, m, tbrt.Config{Policy: tbrt.DefaultPolicy()}, 0)
	if p.FatalSignal != vm.SigFpe {
		t.Fatalf("signal = %s", vm.SignalName(p.FatalSignal))
	}
	pt, err := Reconstruct(s, maps)
	if err != nil {
		t.Fatal(err)
	}
	tt, ok := pt.ThreadByTID(1)
	if !ok {
		t.Fatal("no thread")
	}
	if !tt.Faulted {
		t.Error("thread not marked faulted")
	}
	want := []uint32{1, 2, 3} // trimmed: lines 4 and 5 never ran
	if got := lineSeq(tt); !eqU32(got, want) {
		t.Fatalf("lines = %v, want %v", got, want)
	}
	// The history ends with the exception record (a snap marker may
	// follow it — the snap itself is part of the trace).
	sawExc := false
	for _, e := range tt.Events {
		if e.Kind == EvException {
			sawExc = true
		}
		if e.Kind == EvLine && sawExc {
			t.Errorf("line event after the exception: %+v", e)
		}
	}
	if !sawExc {
		t.Error("no exception event")
	}
	var fault *Event
	for i := range tt.Events {
		if tt.Events[i].Fault {
			fault = &tt.Events[i]
		}
	}
	if fault == nil || fault.Line != 3 {
		t.Errorf("fault marker = %+v, want line 3", fault)
	}
}

// TestRepeatCollapsing: a loop shows up as a repeated line, not as
// thousands of events.
func TestRepeatCollapsing(t *testing.T) {
	m := &module.Module{
		Name: "loop",
		Code: []isa.Instr{
			{Op: isa.MOVI, A: 1, Imm: 50},       // 0 line 1
			{Op: isa.ADDI, A: 1, B: 1, Imm: -1}, // 1 line 2 (loop)
			{Op: isa.BGT, A: 1, B: 0, Imm: 1},   // 2 line 2
			{Op: isa.MOVI, A: 1, Imm: 0},        // 3 line 3
			{Op: isa.SYS, Imm: isa.SysExit},     // 4 line 3
		},
		Funcs: []module.Func{{Name: "main", Entry: 0, End: 5, Exported: true}},
		Files: []string{"loop.mc"},
		Lines: []module.LineEntry{
			{Index: 0, File: 0, Line: 1}, {Index: 1, File: 0, Line: 2},
			{Index: 3, File: 0, Line: 3},
		},
	}
	s, maps, _ := runSnap(t, m, tbrt.Config{}, 0)
	pt, err := Reconstruct(s, maps)
	if err != nil {
		t.Fatal(err)
	}
	tt, _ := pt.ThreadByTID(1)
	var loopEv *Event
	n := 0
	for i := range tt.Events {
		if tt.Events[i].Kind == EvLine && tt.Events[i].Line == 2 {
			loopEv = &tt.Events[i]
			n++
		}
	}
	if n != 1 {
		t.Fatalf("loop line appears in %d events, want 1 collapsed", n)
	}
	if loopEv.Repeat != 49 {
		t.Errorf("repeat = %d, want 49 (50 iterations)", loopEv.Repeat)
	}
}

// TestWrappedBufferTruncation: a long run in a small buffer loses its
// oldest history but reconstructs the newest records cleanly.
func TestWrappedBufferTruncation(t *testing.T) {
	m := &module.Module{
		Name: "long",
		Code: []isa.Instr{
			{Op: isa.MOVI, A: 1, Imm: 3000},
			{Op: isa.ADDI, A: 1, B: 1, Imm: -1},
			{Op: isa.BGT, A: 1, B: 0, Imm: 1},
			{Op: isa.MOVI, A: 1, Imm: 0},
			{Op: isa.SYS, Imm: isa.SysExit},
		},
		Funcs: []module.Func{{Name: "main", Entry: 0, End: 5, Exported: true}},
		Files: []string{"l.mc"},
		Lines: []module.LineEntry{{Index: 0, File: 0, Line: 1}},
	}
	s, maps, _ := runSnap(t, m, tbrt.Config{BufferWords: 128, SubBuffers: 4}, 0)
	pt, err := Reconstruct(s, maps)
	if err != nil {
		t.Fatal(err)
	}
	if len(pt.Threads) == 0 {
		t.Fatal("no threads recovered")
	}
	found := false
	for _, tt := range pt.Threads {
		if tt.Truncated {
			found = true
		}
	}
	if !found {
		t.Error("wrapped buffer not marked truncated")
	}
}

// TestKill9Reconstruction: after kill -9, the committed sub-buffers
// still reconstruct (paper §3.2's whole point).
func TestKill9Reconstruction(t *testing.T) {
	m := fig2()
	// Make main spin forever after the call so we can kill it.
	m.Code[5] = isa.Instr{Op: isa.MOVI, A: 5, Imm: 1 << 30} // line 5
	m.Code[6] = isa.Instr{Op: isa.ADDI, A: 5, B: 5, Imm: -1}
	m.Code[7] = isa.Instr{Op: isa.JMP, Imm: 6}
	res, err := core.Instrument(m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := vm.NewWorld(3)
	mach := w.NewMachine("host", 0)
	p, rt, err := tbrt.NewProcess(mach, "victim", tbrt.Config{BufferWords: 256, SubBuffers: 4})
	if err != nil {
		t.Fatal(err)
	}
	p.Load(res.Module)
	p.StartMain(0)
	mach.World.Run(20000, nil)
	mach.KillProcess(p)

	s := rt.PostMortemSnap()
	pt, err := Reconstruct(s, NewMapSet(res.Map))
	if err != nil {
		t.Fatal(err)
	}
	if len(pt.Threads) == 0 {
		t.Fatal("nothing reconstructed after kill -9")
	}
	lines := 0
	for _, tt := range pt.Threads {
		for _, e := range tt.Events {
			if e.Kind == EvLine {
				lines++
			}
		}
	}
	if lines == 0 {
		t.Error("no source lines recovered from committed sub-buffers")
	}
}

func TestRenderOutput(t *testing.T) {
	s, maps, _ := runSnap(t, fig2(), tbrt.Config{}, 0)
	pt, err := Reconstruct(s, maps)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	src := map[string][]string{"fig2.mc": {
		"if (a == b)", "x = 1;", "x = 2;", "r = rpc();", "y = r + x;", "exit(0);",
	}}
	Render(&buf, pt, RenderOptions{Source: func(f string) []string { return src[f] }})
	out := buf.String()
	for _, want := range []string{"fig2.mc:1", "fig2.mc:4", "call rpc", "x = 2;", "thread 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}

func TestViewStepping(t *testing.T) {
	s, maps, _ := runSnap(t, fig2(), tbrt.Config{}, 0)
	pt, err := Reconstruct(s, maps)
	if err != nil {
		t.Fatal(err)
	}
	tt, _ := pt.ThreadByTID(1)
	v := NewView(tt)
	// Walk back from the newest event to the line after the call
	// (line 5).
	for v.Current() != nil && !(v.Current().Kind == EvLine && v.Current().Line == 5) {
		if !v.StepBack() {
			t.Fatal("never reached the line after the call")
		}
	}
	// Step back into: plain StepBack lands on rpc's last event.
	if !v.StepBack() {
		t.Fatal("step back failed")
	}
	if e := v.Current(); e.Line != 11 || e.Func != "rpc" {
		t.Errorf("after step-back: line %d in %q, want 11 in rpc", e.Line, e.Func)
	}
	// Step back out: back to the caller's call line.
	if !v.StepBackOut() {
		t.Fatal("step back out failed")
	}
	if e := v.Current(); e.Line != 4 {
		t.Errorf("after step-back-out: line %d, want 4", e.Line)
	}
}

func TestReconstructMissingMapfile(t *testing.T) {
	s, _, _ := runSnap(t, fig2(), tbrt.Config{}, 0)
	_, err := Reconstruct(s, NewMapSet())
	if err == nil || !strings.Contains(err.Error(), "no mapfile") {
		t.Errorf("err = %v, want missing-mapfile error", err)
	}
}

// A snap with a bad-DAG module reconstructs other modules and flags
// the untraceable one.
func TestBadDAGRecordEvent(t *testing.T) {
	recs := []trace.Record{
		{Kind: trace.KindThreadStart, Payload: []trace.Word{1, 0, 0}},
		{Kind: trace.KindNone, DAGID: trace.BadDAGID},
	}
	seg := segment{tid: 1, recs: recs}
	tt, err := expandSegment(&snap.Snap{}, NewMapSet(), seg)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range tt.Events {
		if e.Kind == EvBadDAG {
			found = true
		}
	}
	if !found {
		t.Error("bad-DAG record produced no event")
	}
}
