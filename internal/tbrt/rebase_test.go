package tbrt

import (
	"bytes"
	"testing"

	"traceback/internal/core"
	"traceback/internal/isa"
	"traceback/internal/module"
	"traceback/internal/recon"
	"traceback/internal/snap"
	"traceback/internal/trace"
	"traceback/internal/vm"
)

// TestTLSSlotRebasing: when the default TLS index is unavailable, the
// runtime rewrites every probe's TLS slot through the fixup table at
// load (paper §2.5) — and tracing still works.
func TestTLSSlotRebasing(t *testing.T) {
	res := instr(t, fig2(), core.Options{})
	p, rt, _ := newRT(t, Config{TLSSlot: 20})
	if _, err := p.Load(res.Module); err != nil {
		t.Fatal(err)
	}
	// Every TLS-touching probe instruction now uses slot 20.
	lm := p.Modules[0]
	for _, fx := range res.Module.TLSFixups {
		in := p.Code[lm.CodeBase+fx]
		if in.C != 20 {
			t.Fatalf("fixup at %d still uses slot %d", fx, in.C)
		}
	}
	if _, err := p.StartMain(0); err != nil {
		t.Fatal(err)
	}
	if err := vm.RunProcess(p, 100000); err != nil {
		t.Fatal(err)
	}
	if p.FatalSignal != 0 {
		t.Fatalf("faulted: %s", vm.SignalName(p.FatalSignal))
	}
	s := rt.PostMortemSnap()
	recs := mainBufferRecords(t, s, 1)
	dagCount := 0
	for _, r := range recs {
		if r.Kind == trace.KindNone {
			dagCount++
		}
	}
	if dagCount != 3 {
		t.Errorf("%d DAG records with rebased TLS slot, want 3", dagCount)
	}
}

// TestScavengeDeadThreads: a thread killed abruptly (kill -9) never
// notifies the runtime, so its buffer stays taken until the next
// assignment finds the free pool empty and scavenges it (paper
// §3.1.2). Main takes one of three buffers, workers A and B the other
// two; main kills both, then spawns C and, once C has a buffer, D.
// C must land in A's former buffer and D in B's (dead owners are
// released in TID order), neither in the desperation buffer.
//
// A and B run busy, which wraps into a second sub-buffer before it
// sleeps; C and D run brief, which writes far less. Main then kills C
// too, so the snap has no write pointer for C's buffer and recovery
// scans for the last non-zero word of its open sub-buffer. That scan
// must end at C's newest record, not at a stale word of A's that
// scavenging left behind C's cursor.
func TestScavengeDeadThreads(t *testing.T) {
	spawn := func(fn int32) []isa.Instr {
		return []isa.Instr{
			{Op: isa.LDFN, A: 1, Imm: fn},
			{Op: isa.MOVI, A: 2, Imm: 0},
			{Op: isa.SYS, Imm: isa.SysThreadCreate},
		}
	}
	kill := func(reg uint8) []isa.Instr {
		return []isa.Instr{
			{Op: isa.MOV, A: 1, B: reg},
			{Op: isa.MOVI, A: 2, Imm: vm.SigKill},
			{Op: isa.SYS, Imm: isa.SysKill},
		}
	}
	sleep := []isa.Instr{
		{Op: isa.MOVI, A: 1, Imm: 5000},
		{Op: isa.SYS, Imm: isa.SysSleep},
	}
	const busy, brief = 1, 2 // indices into Funcs
	const busyLine, briefLine = 10, 20
	var code []isa.Instr
	code = append(code, spawn(busy)...) // A
	code = append(code, isa.Instr{Op: isa.MOV, A: 8, B: 0})
	code = append(code, spawn(busy)...) // B
	code = append(code, isa.Instr{Op: isa.MOV, A: 9, B: 0})
	code = append(code, sleep...) // let A and B take their buffers
	code = append(code, kill(8)...)
	code = append(code, kill(9)...)
	code = append(code, spawn(brief)...) // C
	code = append(code, isa.Instr{Op: isa.MOV, A: 10, B: 0})
	code = append(code, sleep...)        // let C take a buffer before D exists
	code = append(code, spawn(brief)...) // D
	code = append(code, sleep...)
	code = append(code, kill(10)...)
	code = append(code, isa.Instr{Op: isa.MOVI, A: 1, Imm: 0}, isa.Instr{Op: isa.SYS, Imm: isa.SysExit})
	// worker: count r5 down from n with a probe per iteration, then
	// sleep for good.
	worker := func(n int32) []isa.Instr {
		at := int32(len(code))
		return []isa.Instr{
			{Op: isa.MOVI, A: 5, Imm: n},
			{Op: isa.MOVI, A: 6, Imm: 0},
			{Op: isa.ADDI, A: 5, B: 5, Imm: -1},
			{Op: isa.BGT, A: 5, B: 6, Imm: at + 2},
			{Op: isa.MOVI, A: 1, Imm: 1 << 30},
			{Op: isa.SYS, Imm: isa.SysSleep},
			{Op: isa.JMP, Imm: at + 4},
		}
	}
	mainEnd := uint32(len(code))
	code = append(code, worker(100)...)
	busyEnd := uint32(len(code))
	code = append(code, worker(3)...)
	m := &module.Module{Name: "scav", Code: code,
		Funcs: []module.Func{
			{Name: "main", Entry: 0, End: mainEnd, Exported: true},
			{Name: "busy", Entry: mainEnd, End: busyEnd},
			{Name: "brief", Entry: busyEnd, End: uint32(len(code))},
		},
		Files: []string{"scav.mc"},
		Lines: []module.LineEntry{
			{Index: 0, File: 0, Line: 1},
			{Index: mainEnd, File: 0, Line: busyLine},
			{Index: busyEnd, File: 0, Line: briefLine},
		},
	}
	res := instr(t, m, core.Options{})

	const tidA, tidB, tidC, tidD = 2, 3, 4, 5
	var first []byte
	for run := 0; run < 20; run++ {
		p, rt, mach := newRT(t, Config{NumBuffers: 3, BufferWords: 256, SubBuffers: 4})
		if _, err := p.Load(res.Module); err != nil {
			t.Fatal(err)
		}
		if _, err := p.StartMain(0); err != nil {
			t.Fatal(err)
		}
		mach.World.Run(100000, func() bool { return rt.Traced(tidA) && rt.Traced(tidB) })
		bufA, bufB := rt.bufs.byThread[tidA], rt.bufs.byThread[tidB]
		if bufA == nil || bufB == nil || bufA.kind != snap.BufMain || bufB.kind != snap.BufMain || len(rt.bufs.free) != 0 {
			t.Fatalf("A and B did not take the last two main buffers (A %v, B %v, %d free)", bufA, bufB, len(rt.bufs.free))
		}
		mach.World.Run(100000, func() bool { return rt.Traced(tidC) && rt.Traced(tidD) })
		if a, b := p.Threads[tidA], p.Threads[tidB]; !a.KilledAbruptly || !b.KilledAbruptly {
			t.Fatal("A and B are not abruptly dead")
		}
		if rt.bufs.byThread[tidC] != bufA || rt.bufs.byThread[tidD] != bufB {
			t.Fatal("C and D did not take A's and B's former buffers, in that order")
		}
		if c := rt.bufs.hdrRead(bufA, hdrCommitted); c != 0 {
			t.Fatalf("A's buffer has sub-buffer %d committed, want 0: busy must wrap once", c)
		}
		mach.World.Run(100000, func() bool { return p.Exited })
		if !p.Exited {
			t.Fatal("main did not exit")
		}
		if !p.Threads[tidC].KilledAbruptly {
			t.Fatal("C is not abruptly dead")
		}
		if n := rt.Metrics().Counter("tbrt_desperations_total", "").Load(); n != 0 {
			t.Errorf("%d desperation assignment(s), want 0", n)
		}
		if n := rt.Metrics().Counter("tbrt_scavenges_total", "").Load(); n != 2 {
			t.Errorf("%d scavenge(s), want 2", n)
		}
		s := rt.PostMortemSnap()
		pt, err := recon.Reconstruct(s, recon.NewMapSet(res.Map))
		if err != nil {
			t.Fatal(err)
		}
		for _, tid := range []uint32{tidA, tidC} {
			tt, ok := pt.ThreadByTID(tid)
			if !ok {
				t.Fatalf("no reconstructed history for tid %d", tid)
			}
			var want, stale uint32 = busyLine, briefLine
			if tid == tidC {
				want, stale = stale, want
			}
			saw := false
			for _, e := range tt.Events {
				saw = saw || e.Line == want
				if e.Line == stale {
					t.Fatalf("tid %d's history holds the other worker's line %d", tid, stale)
				}
			}
			if !saw {
				t.Errorf("tid %d's history has no line %d", tid, want)
			}
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("run %d: post-mortem snap differs from run 0's", run)
		}
	}
}

// TestStaticBufferFallback: with zero main buffers every thread that
// runs instrumented code lands in the desperation buffer; the static
// buffer config keeps the runtime functional.
func TestNoMainBuffers(t *testing.T) {
	res := instr(t, fig2(), core.Options{})
	p, rt, _ := newRT(t, Config{NumBuffers: -1}) // withDefaults treats <0 as given
	_ = rt
	if _, err := p.Load(res.Module); err != nil {
		t.Fatal(err)
	}
	p.StartMain(0)
	if err := vm.RunProcess(p, 100000); err != nil {
		t.Fatal(err)
	}
	if p.FatalSignal != 0 {
		t.Fatalf("program must run correctly even without buffers: %s",
			vm.SignalName(p.FatalSignal))
	}
}
