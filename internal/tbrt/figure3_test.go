package tbrt

import (
	"testing"

	"traceback/internal/core"
	"traceback/internal/isa"
	"traceback/internal/module"
	"traceback/internal/snap"
	"traceback/internal/vm"
)

// TestFigure3BufferAssignment reproduces the paper's Figure 3 state:
// a runtime configured with two main trace buffers and four active
// instrumented threads. Two threads own the main buffers; the other
// two write into the shared desperation buffer.
func TestFigure3BufferAssignment(t *testing.T) {
	// Four workers spin long enough to coexist; main joins them all.
	code := []isa.Instr{
		{Op: isa.MOVI, A: 9, Imm: 0}, // 0: spawned counter
		{Op: isa.LDFN, A: 1, Imm: 1}, // 1: loop head
		{Op: isa.MOVI, A: 2, Imm: 0},
		{Op: isa.SYS, Imm: isa.SysThreadCreate},
		{Op: isa.ADDI, A: 9, B: 9, Imm: 1},
		{Op: isa.MOVI, A: 10, Imm: 4},
		{Op: isa.BLT, A: 9, B: 10, Imm: 1},
		// join tids 2..5
		{Op: isa.MOVI, A: 8, Imm: 2}, // 7: join loop
		{Op: isa.MOV, A: 1, B: 8},
		{Op: isa.SYS, Imm: isa.SysThreadJoin},
		{Op: isa.ADDI, A: 8, B: 8, Imm: 1},
		{Op: isa.MOVI, A: 10, Imm: 6},
		{Op: isa.BLT, A: 8, B: 10, Imm: 8},
		{Op: isa.MOVI, A: 1, Imm: 0},
		{Op: isa.SYS, Imm: isa.SysExit},
		// worker: busy loop with probes (instr 15)
		{Op: isa.MOVI, A: 5, Imm: 800},
		{Op: isa.ADDI, A: 5, B: 5, Imm: -1},
		{Op: isa.BGT, A: 5, B: 0, Imm: 16},
		{Op: isa.RET},
	}
	m := &module.Module{Name: "fig3", Code: code,
		Funcs: []module.Func{
			{Name: "main", Entry: 0, End: 15, Exported: true},
			{Name: "worker", Entry: 15, End: 19},
		}}
	res, err := core.Instrument(m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, rt, mach := newRT(t, Config{NumBuffers: 2, BufferWords: 4096, SubBuffers: 2})
	p.Load(res.Module)
	p.StartMain(0)
	// Run until all four workers have been spawned and started
	// probing, but before they finish.
	mach.World.Run(40, nil)
	if len(p.Threads) < 5 {
		t.Fatalf("only %d threads spawned", len(p.Threads))
	}
	// Figure 3: two buffers owned, extra threads in desperation.
	owned := 0
	desperate := 0
	for _, b := range rt.bufs.byThread {
		switch b.kind {
		case snap.BufMain:
			owned++
		case snap.BufDesperation:
			desperate++
		}
	}
	if owned != 2 {
		t.Errorf("%d threads own main buffers, want 2", owned)
	}
	if desperate < 1 {
		t.Errorf("%d threads in the desperation buffer, want >= 1", desperate)
	}
	// Run to completion: correctness is unaffected by buffer
	// starvation (paper §3.1: the program executes properly).
	if err := vm.RunProcess(p, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if p.FatalSignal != 0 || p.ExitCode != 0 {
		t.Fatalf("sig=%s exit=%d", vm.SignalName(p.FatalSignal), p.ExitCode)
	}
	// The desperation buffer is declared unrecoverable in the snap.
	s := rt.PostMortemSnap()
	for _, b := range s.Buffers {
		if b.Kind == snap.BufDesperation && b.LastKnown {
			t.Error("desperation buffer claims a recoverable pointer")
		}
	}
}

// TestLogicalClock: on platforms without a high-resolution timer the
// runtime falls back to a logical clock that still orders
// synchronization events monotonically (paper §3.5).
func TestLogicalClock(t *testing.T) {
	res := instr(t, fig2(), core.Options{})
	p, rt, _ := newRT(t, Config{UseLogicalClock: true})
	p.Load(res.Module)
	p.StartMain(0)
	vm.RunProcess(p, 100000)
	s := rt.PostMortemSnap()
	recs := mainBufferRecords(t, s, 1)
	var last uint64
	for _, r := range recs {
		var ts uint64
		switch r.Kind {
		case 5, 6: // thread start/end
			if len(r.Payload) == 3 {
				ts = uint64(r.Payload[1]) | uint64(r.Payload[2])<<32
			}
		}
		if ts != 0 {
			if ts < last {
				t.Errorf("logical clock went backwards: %d after %d", ts, last)
			}
			last = ts
		}
	}
	if last == 0 {
		t.Fatal("no logical timestamps found")
	}
	// Logical clocks are small counters, not machine cycles.
	if last > 1000 {
		t.Errorf("logical clock value %d looks like a hardware timestamp", last)
	}
}
