package recon

import (
	"strings"
	"testing"

	"traceback/internal/core"
	"traceback/internal/isa"
	"traceback/internal/module"
	"traceback/internal/tbrt"
	"traceback/internal/trace"
	"traceback/internal/vm"
)

// clientMod makes an RPC to endpoint 7 and exits.
func clientMod() *module.Module {
	return &module.Module{
		Name: "client",
		Code: []isa.Instr{
			{Op: isa.MOVI, A: 5, Imm: 8192},    // 0 line 1: build request
			{Op: isa.MOVI, A: 6, Imm: 99},      // 1 line 1
			{Op: isa.ST, A: 5, B: 6},           // 2 line 1
			{Op: isa.MOVI, A: 1, Imm: 7},       // 3 line 2: call server
			{Op: isa.MOVI, A: 2, Imm: 8192},    // 4 line 2
			{Op: isa.MOVI, A: 3, Imm: 8},       // 5 line 2
			{Op: isa.MOVI, A: 4, Imm: 8256},    // 6 line 2
			{Op: isa.SYS, Imm: isa.SysRPCCall}, // 7 line 2
			{Op: isa.MOVI, A: 1, Imm: 0},       // 8 line 3
			{Op: isa.SYS, Imm: isa.SysExit},    // 9 line 3
		},
		Funcs: []module.Func{{Name: "main", Entry: 0, End: 10, Exported: true}},
		Files: []string{"client.mc"},
		Lines: []module.LineEntry{
			{Index: 0, File: 0, Line: 1}, {Index: 3, File: 0, Line: 2},
			{Index: 8, File: 0, Line: 3},
		},
	}
}

// serverMod serves one request on endpoint 7 and exits.
func serverMod() *module.Module {
	return &module.Module{
		Name: "server",
		Code: []isa.Instr{
			{Op: isa.MOVI, A: 1, Imm: 7},        // 0 line 1: recv
			{Op: isa.MOVI, A: 2, Imm: 8192},     // 1 line 1
			{Op: isa.MOVI, A: 3, Imm: 64},       // 2 line 1
			{Op: isa.SYS, Imm: isa.SysRPCRecv},  // 3 line 1
			{Op: isa.MOVI, A: 5, Imm: 8192},     // 4 line 2: work
			{Op: isa.LD, A: 6, B: 5},            // 5 line 2
			{Op: isa.ADDI, A: 6, B: 6, Imm: 1},  // 6 line 2
			{Op: isa.ST, A: 5, B: 6},            // 7 line 2
			{Op: isa.MOVI, A: 1, Imm: 7},        // 8 line 3: reply
			{Op: isa.MOVI, A: 2, Imm: 0},        // 9 line 3
			{Op: isa.MOVI, A: 3, Imm: 8192},     // 10 line 3
			{Op: isa.MOVI, A: 4, Imm: 8},        // 11 line 3
			{Op: isa.SYS, Imm: isa.SysRPCReply}, // 12 line 3
			{Op: isa.MOVI, A: 1, Imm: 0},        // 13 line 4
			{Op: isa.SYS, Imm: isa.SysExit},     // 14 line 4
		},
		Funcs: []module.Func{{Name: "main", Entry: 0, End: 15, Exported: true}},
		Files: []string{"server.mc"},
		Lines: []module.LineEntry{
			{Index: 0, File: 0, Line: 1}, {Index: 4, File: 0, Line: 2},
			{Index: 8, File: 0, Line: 3}, {Index: 13, File: 0, Line: 4},
		},
	}
}

// runDistributed runs client and server on two skewed machines and
// returns both reconstructions.
func runDistributed(t *testing.T, skew int64) (*ProcessTrace, *ProcessTrace, *MapSet) {
	t.Helper()
	resC, err := core.Instrument(clientMod(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resS, err := core.Instrument(serverMod(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := vm.NewWorld(5)
	mc := w.NewMachine("client-box", 0)
	ms := w.NewMachine("server-box", skew)
	pc, rtc, err := tbrt.NewProcess(mc, "client", tbrt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ps, rts, err := tbrt.NewProcess(ms, "server", tbrt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []struct {
		p *vm.Process
		m *module.Module
	}{{pc, resC.Module}, {ps, resS.Module}} {
		if _, err := x.p.Load(x.m); err != nil {
			t.Fatal(err)
		}
		x.p.AllocRegion(16384)
		if _, err := x.p.StartMain(0); err != nil {
			t.Fatal(err)
		}
	}
	w.RegisterEndpoint(7, ps)
	w.Run(2_000_000, func() bool { return pc.Exited && ps.Exited })
	if !pc.Exited || !ps.Exited {
		t.Fatalf("client exited=%v server exited=%v", pc.Exited, ps.Exited)
	}
	maps := NewMapSet(resC.Map, resS.Map)
	ptc, err := Reconstruct(rtc.PostMortemSnap(), maps)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := Reconstruct(rts.PostMortemSnap(), maps)
	if err != nil {
		t.Fatal(err)
	}
	return ptc, pts, maps
}

func TestStitchLogicalThread(t *testing.T) {
	ptc, pts, _ := runDistributed(t, 0)
	mt := Stitch([]*ProcessTrace{ptc, pts})
	if len(mt.Logical) != 1 {
		t.Fatalf("%d logical threads, want 1", len(mt.Logical))
	}
	lt := mt.Logical[0]
	// Expect at least 3 segments: client pre-call, server body,
	// client post-reply — ordered by sequence number.
	if len(lt.Segments) < 3 {
		t.Fatalf("%d segments, want >= 3", len(lt.Segments))
	}
	for i := 1; i < len(lt.Segments); i++ {
		if lt.Segments[i].Seq < lt.Segments[i-1].Seq {
			t.Errorf("segments out of order: %f before %f", lt.Segments[i-1].Seq, lt.Segments[i].Seq)
		}
	}
	if lt.Segments[0].Process != "client" {
		t.Errorf("first segment on %s, want client", lt.Segments[0].Process)
	}
	// The server body segment sits between client segments.
	var procsInOrder []string
	for _, seg := range lt.Segments {
		if len(procsInOrder) == 0 || procsInOrder[len(procsInOrder)-1] != seg.Process {
			procsInOrder = append(procsInOrder, seg.Process)
		}
	}
	want := []string{"client", "server", "client"}
	if len(procsInOrder) != 3 || procsInOrder[0] != want[0] ||
		procsInOrder[1] != want[1] || procsInOrder[2] != want[2] {
		t.Errorf("segment machines = %v, want %v", procsInOrder, want)
	}
	// Server's work line (line 2 of server.mc) appears inside the
	// logical thread.
	found := false
	for _, seg := range lt.Segments {
		for _, e := range seg.Events {
			if e.Kind == EvLine && e.File == "server.mc" && e.Line == 2 {
				found = true
			}
		}
	}
	if !found {
		t.Error("server work line missing from the stitched trace")
	}
}

func TestStitchOrderSurvivesClockSkew(t *testing.T) {
	// Massive negative skew: the server's timestamps precede the
	// client's even though the server's work happens after the call.
	// Sequence-number stitching must still give the causal order.
	ptc, pts, _ := runDistributed(t, -1_000_000)
	mt := Stitch([]*ProcessTrace{ptc, pts})
	if len(mt.Logical) != 1 {
		t.Fatalf("%d logical threads", len(mt.Logical))
	}
	lt := mt.Logical[0]
	if lt.Segments[0].Process != "client" {
		t.Errorf("causal order broken under skew: first segment on %s", lt.Segments[0].Process)
	}
	// A skew estimate between the two runtimes must be recorded.
	if len(mt.SkewEstimates) == 0 {
		t.Error("no skew estimates")
	}
}

func TestSyncRecordsOnBothSides(t *testing.T) {
	ptc, pts, _ := runDistributed(t, 0)
	countSyncs := func(pt *ProcessTrace, points ...trace.SyncPoint) int {
		n := 0
		for _, th := range pt.Threads {
			for _, e := range th.Events {
				if e.Kind != EvSync {
					continue
				}
				for _, p := range points {
					if e.Sync.Point == p {
						n++
					}
				}
			}
		}
		return n
	}
	// Paper §5.1: four SYNCs per RPC, two in each runtime's buffers.
	if n := countSyncs(ptc, trace.SyncCallSend, trace.SyncReplyRecv); n != 2 {
		t.Errorf("client syncs = %d, want 2 (call-send + reply-recv)", n)
	}
	if n := countSyncs(pts, trace.SyncCallRecv, trace.SyncReplySend); n != 2 {
		t.Errorf("server syncs = %d, want 2 (call-recv + reply-send)", n)
	}
}

func TestRenderLogicalOutput(t *testing.T) {
	ptc, pts, _ := runDistributed(t, 0)
	mt := Stitch([]*ProcessTrace{ptc, pts})
	var buf strings.Builder
	RenderLogical(&buf, mt.Logical[0], RenderOptions{})
	out := buf.String()
	for _, want := range []string{"client-box/client", "server-box/server", "server.mc:2"} {
		if !strings.Contains(out, want) {
			t.Errorf("logical render missing %q:\n%s", want, out)
		}
	}
}

func TestInterleaveTwoThreads(t *testing.T) {
	// Build two synthetic threads with interleaved anchors.
	t1 := &ThreadTrace{TID: 1, Events: []Event{
		{Kind: EvLine, Line: 1, TS: 10, AnchorSeq: 0},
		{Kind: EvLine, Line: 2, TS: 30, AnchorSeq: 0},
	}}
	t2 := &ThreadTrace{TID: 2, Events: []Event{
		{Kind: EvLine, Line: 9, TS: 20, AnchorSeq: 0},
		{Kind: EvLine, Line: 8, TS: 40, AnchorSeq: 0},
	}}
	m := Interleave([]*ThreadTrace{t1, t2})
	var got []uint32
	for _, me := range m {
		got = append(got, me.Ev.Line)
	}
	want := []uint32{1, 9, 2, 8}
	if !eqU32(got, want) {
		t.Errorf("interleaved = %v, want %v", got, want)
	}
}
