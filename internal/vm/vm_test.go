package vm

import (
	"testing"

	"traceback/internal/isa"
	"traceback/internal/module"
)

func newProc(t *testing.T, name string, code []isa.Instr, funcs ...module.Func) (*Process, *Machine) {
	t.Helper()
	w := NewWorld(1)
	m := w.NewMachine("m0", 0)
	p := m.NewProcess(name, nil)
	if len(funcs) == 0 {
		funcs = []module.Func{{Name: "main", Entry: 0, End: uint32(len(code)), Exported: true}}
	}
	mod := &module.Module{Name: name, Code: code, Funcs: funcs}
	if _, err := p.Load(mod); err != nil {
		t.Fatal(err)
	}
	return p, m
}

func run(t *testing.T, p *Process) {
	t.Helper()
	if _, err := p.StartMain(0); err != nil {
		t.Fatal(err)
	}
	if err := RunProcess(p, 1_000_000); err != nil {
		t.Fatal(err)
	}
}

func TestArithmeticAndExit(t *testing.T) {
	// exit(6*7)
	p, _ := newProc(t, "arith", []isa.Instr{
		{Op: isa.MOVI, A: 5, Imm: 6},
		{Op: isa.MOVI, A: 6, Imm: 7},
		{Op: isa.MUL, A: 1, B: 5, C: 6},
		{Op: isa.SYS, Imm: isa.SysExit},
	})
	run(t, p)
	if p.ExitCode != 42 {
		t.Errorf("exit code = %d, want 42", p.ExitCode)
	}
	if p.FatalSignal != 0 {
		t.Errorf("fatal signal = %d", p.FatalSignal)
	}
}

func TestLoopAndBranch(t *testing.T) {
	// sum 1..10 = 55
	p, _ := newProc(t, "loop", []isa.Instr{
		{Op: isa.MOVI, A: 5, Imm: 0},  // sum
		{Op: isa.MOVI, A: 6, Imm: 1},  // i
		{Op: isa.MOVI, A: 7, Imm: 10}, // limit
		{Op: isa.BGT, A: 6, B: 7, Imm: 7},
		{Op: isa.ADD, A: 5, B: 5, C: 6},
		{Op: isa.ADDI, A: 6, B: 6, Imm: 1},
		{Op: isa.JMP, Imm: 3},
		{Op: isa.MOV, A: 1, B: 5},
		{Op: isa.SYS, Imm: isa.SysExit},
	})
	run(t, p)
	if p.ExitCode != 55 {
		t.Errorf("exit code = %d, want 55", p.ExitCode)
	}
}

func TestCallRet(t *testing.T) {
	// main: r1 = f(); exit(r1); f returns 9.
	code := []isa.Instr{
		{Op: isa.CALL, Imm: 4},
		{Op: isa.MOV, A: 1, B: 0},
		{Op: isa.SYS, Imm: isa.SysExit},
		{Op: isa.HLT},
		{Op: isa.MOVI, A: 0, Imm: 9}, // f
		{Op: isa.RET},
	}
	p, _ := newProc(t, "call", code,
		module.Func{Name: "main", Entry: 0, End: 4, Exported: true},
		module.Func{Name: "f", Entry: 4, End: 6})
	run(t, p)
	if p.ExitCode != 9 {
		t.Errorf("exit code = %d, want 9", p.ExitCode)
	}
}

func TestDivideByZeroTerminates(t *testing.T) {
	p, _ := newProc(t, "div0", []isa.Instr{
		{Op: isa.MOVI, A: 1, Imm: 1},
		{Op: isa.MOVI, A: 2, Imm: 0},
		{Op: isa.DIV, A: 3, B: 1, C: 2},
		{Op: isa.SYS, Imm: isa.SysExit},
	})
	run(t, p)
	if p.FatalSignal != SigFpe {
		t.Errorf("fatal signal = %s, want SIGFPE", SignalName(p.FatalSignal))
	}
}

func TestNullDereferenceFaults(t *testing.T) {
	p, _ := newProc(t, "null", []isa.Instr{
		{Op: isa.MOVI, A: 1, Imm: 0},
		{Op: isa.LD, A: 2, B: 1},
		{Op: isa.SYS, Imm: isa.SysExit},
	})
	run(t, p)
	if p.FatalSignal != SigSegv {
		t.Errorf("fatal signal = %s, want SIGSEGV", SignalName(p.FatalSignal))
	}
}

// TestWrappingAccessFaults: an access whose end wraps past 2^64 is
// out of range like any other, so it raises SIGSEGV instead of
// slicing the host's memory out of bounds: a load from -8, a write
// of 2^64-1 bytes, and the host-side accessors given such ranges.
func TestWrappingAccessFaults(t *testing.T) {
	p, _ := newProc(t, "wrapld", []isa.Instr{
		{Op: isa.MOVI, A: 1, Imm: -8},
		{Op: isa.LD, A: 2, B: 1},
		{Op: isa.SYS, Imm: isa.SysExit},
	})
	run(t, p)
	if p.FatalSignal != SigSegv {
		t.Errorf("load from -8: fatal signal = %s, want SIGSEGV", SignalName(p.FatalSignal))
	}

	p, _ = newProc(t, "wrapwr", []isa.Instr{
		{Op: isa.MOVI, A: 1, Imm: 1},
		{Op: isa.MOVI, A: 2, Imm: 4096},
		{Op: isa.MOVI, A: 3, Imm: -1},
		{Op: isa.SYS, Imm: isa.SysWrite},
		{Op: isa.SYS, Imm: isa.SysExit},
	})
	run(t, p)
	if p.FatalSignal != SigSegv {
		t.Errorf("write of 2^64-1 bytes: fatal signal = %s, want SIGSEGV", SignalName(p.FatalSignal))
	}

	if _, ok := p.ReadBytes(1<<63, 1<<63); ok {
		t.Error("ReadBytes(2^63, 2^63) succeeded")
	}
	if _, ok := p.ReadBytes(^uint64(7), 16); ok {
		t.Error("ReadBytes(-8, 16) succeeded")
	}
	if p.WriteBytes(^uint64(7), make([]byte, 16)) {
		t.Error("WriteBytes(-8, 16 bytes) succeeded")
	}
	if _, ok := p.ReadU64(^uint64(7)); ok {
		t.Error("ReadU64(-8) succeeded")
	}
}

func TestWildReturnFaults(t *testing.T) {
	// Corrupt the return address on the stack, then RET.
	p, _ := newProc(t, "wild", []isa.Instr{
		{Op: isa.MOVI, A: 1, Imm: 0x0BAD},
		{Op: isa.PUSH, A: 1},
		{Op: isa.RET},
	})
	run(t, p)
	if p.FatalSignal != SigSegv {
		t.Errorf("fatal signal = %s, want SIGSEGV (wild return)", SignalName(p.FatalSignal))
	}
}

func TestSignalHandlerRunsAndReturns(t *testing.T) {
	// Install a handler for SIGFPE, divide by zero, handler sets a
	// global flag, then execution resumes after the fault.
	code := []isa.Instr{
		{Op: isa.MOVI, A: 1, Imm: SigFpe},
		{Op: isa.MOVI, A: 2, Imm: 9}, // handler addr (abs, module at 0)
		{Op: isa.SYS, Imm: isa.SysSignal},
		{Op: isa.MOVI, A: 5, Imm: 1},
		{Op: isa.MOVI, A: 6, Imm: 0},
		{Op: isa.DIV, A: 7, B: 5, C: 6}, // faults; handler runs; resume after
		{Op: isa.MOVI, A: 1, Imm: 77},
		{Op: isa.SYS, Imm: isa.SysExit},
		{Op: isa.HLT},
		// handler: store 1 at address 8192 and return
		{Op: isa.MOVI, A: 3, Imm: 8192}, // 9
		{Op: isa.MOVI, A: 4, Imm: 1},
		{Op: isa.ST, A: 3, B: 4},
		{Op: isa.RET},
	}
	p, _ := newProc(t, "sig", code,
		module.Func{Name: "main", Entry: 0, End: 9, Exported: true},
		module.Func{Name: "handler", Entry: 9, End: 13})
	// Reserve the address the handler writes.
	if a := p.AllocRegion(8192); a == 0 {
		t.Fatal("alloc failed")
	}
	run(t, p)
	if p.FatalSignal != 0 || p.ExitCode != 77 {
		t.Fatalf("signal=%s exit=%d, want clean exit 77", SignalName(p.FatalSignal), p.ExitCode)
	}
	v, _ := p.ReadU64(8192)
	if v != 1 {
		t.Error("handler never ran")
	}
}

func TestNegativeSleepRaisesSigArg(t *testing.T) {
	p, _ := newProc(t, "sleep", []isa.Instr{
		{Op: isa.MOVI, A: 1, Imm: -5},
		{Op: isa.SYS, Imm: isa.SysSleep},
		{Op: isa.SYS, Imm: isa.SysExit},
	})
	run(t, p)
	if p.FatalSignal != SigArg {
		t.Errorf("fatal signal = %s, want SIGARG", SignalName(p.FatalSignal))
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	p, m := newProc(t, "sleep2", []isa.Instr{
		{Op: isa.MOVI, A: 1, Imm: 100000},
		{Op: isa.SYS, Imm: isa.SysSleep},
		{Op: isa.MOVI, A: 1, Imm: 0},
		{Op: isa.SYS, Imm: isa.SysExit},
	})
	run(t, p)
	if m.Clock() < 100000 {
		t.Errorf("clock = %d, want >= 100000 after sleep", m.Clock())
	}
}

func TestThreadsCreateJoin(t *testing.T) {
	// main spawns worker(arg=5), joins, exits with its value*2.
	code := []isa.Instr{
		{Op: isa.MOVI, A: 1, Imm: 8}, // worker entry
		{Op: isa.MOVI, A: 2, Imm: 5}, // arg
		{Op: isa.SYS, Imm: isa.SysThreadCreate},
		{Op: isa.MOV, A: 1, B: 0}, // tid
		{Op: isa.SYS, Imm: isa.SysThreadJoin},
		{Op: isa.ADD, A: 1, B: 0, C: 0}, // 2*value
		{Op: isa.SYS, Imm: isa.SysExit},
		{Op: isa.HLT},
		// worker: return arg+1
		{Op: isa.SYS, Imm: isa.SysGetArg}, // 8
		{Op: isa.ADDI, A: 0, B: 0, Imm: 1},
		{Op: isa.RET},
	}
	p, _ := newProc(t, "threads", code,
		module.Func{Name: "main", Entry: 0, End: 8, Exported: true},
		module.Func{Name: "worker", Entry: 8, End: 11})
	run(t, p)
	if p.ExitCode != 12 {
		t.Errorf("exit code = %d, want 12", p.ExitCode)
	}
}

func TestMutexMutualExclusionAndDeadlock(t *testing.T) {
	// Self-deadlock: lock twice. The process hangs (no runnable
	// threads), which Run reports by returning without process exit.
	code := []isa.Instr{
		{Op: isa.MOVI, A: 1, Imm: 8192},
		{Op: isa.SYS, Imm: isa.SysMutexLock},
		{Op: isa.MOVI, A: 1, Imm: 8192},
		{Op: isa.SYS, Imm: isa.SysMutexLock}, // deadlock
		{Op: isa.SYS, Imm: isa.SysExit},
	}
	p, m := newProc(t, "dead", code)
	if _, err := p.StartMain(0); err != nil {
		t.Fatal(err)
	}
	m.World.Run(100000, func() bool { return p.Exited })
	if p.Exited {
		t.Fatal("self-deadlocked process exited")
	}
	th := p.Threads[1]
	if th.State != BlockedMutex {
		t.Errorf("thread state = %v, want blocked-mutex", th.State)
	}
}

func TestKillMinus9IsAbrupt(t *testing.T) {
	p, m := newProc(t, "victim", []isa.Instr{
		{Op: isa.JMP, Imm: 0}, // spin forever
	})
	if _, err := p.StartMain(0); err != nil {
		t.Fatal(err)
	}
	m.World.Run(10, nil)
	m.KillProcess(p)
	if !p.Exited || p.FatalSignal != SigKill {
		t.Fatalf("exited=%v signal=%s", p.Exited, SignalName(p.FatalSignal))
	}
	if !p.Threads[1].KilledAbruptly {
		t.Error("thread not marked abruptly killed")
	}
	// Memory must remain readable post-mortem (snap-from-outside).
	if _, ok := p.ReadU64(8192); !ok {
		t.Error("post-mortem memory read failed")
	}
}

func TestConsoleWrite(t *testing.T) {
	data := []byte("hello\n")
	mod := &module.Module{
		Name: "hello",
		Code: []isa.Instr{
			{Op: isa.MOVI, A: 1, Imm: 1},
			{Op: isa.GADDR, A: 2, Imm: 0},
			{Op: isa.MOVI, A: 3, Imm: int32(len(data))},
			{Op: isa.SYS, Imm: isa.SysWrite},
			{Op: isa.MOVI, A: 1, Imm: 0},
			{Op: isa.SYS, Imm: isa.SysExit},
		},
		Data:  data,
		Funcs: []module.Func{{Name: "main", Entry: 0, End: 6, Exported: true}},
	}
	w := NewWorld(1)
	m := w.NewMachine("m0", 0)
	p := m.NewProcess("hello", nil)
	if _, err := p.Load(mod); err != nil {
		t.Fatal(err)
	}
	run(t, p)
	if p.OutString() != "hello\n" {
		t.Errorf("output = %q", p.OutString())
	}
}

func TestCrossModuleImport(t *testing.T) {
	lib := &module.Module{
		Name: "lib",
		Code: []isa.Instr{
			{Op: isa.MOVI, A: 0, Imm: 123},
			{Op: isa.RET},
		},
		Funcs: []module.Func{{Name: "get", Entry: 0, End: 2, Exported: true}},
	}
	app := &module.Module{
		Name: "app",
		Code: []isa.Instr{
			{Op: isa.CALX, Imm: 0},
			{Op: isa.MOV, A: 1, B: 0},
			{Op: isa.SYS, Imm: isa.SysExit},
		},
		Imports: []module.Import{{Module: "lib", Name: "get"}},
		Funcs:   []module.Func{{Name: "main", Entry: 0, End: 3, Exported: true}},
	}
	w := NewWorld(1)
	m := w.NewMachine("m0", 0)
	p := m.NewProcess("app", nil)
	if _, err := p.Load(lib); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Load(app); err != nil {
		t.Fatal(err)
	}
	run(t, p)
	if p.ExitCode != 123 {
		t.Errorf("exit code = %d, want 123", p.ExitCode)
	}
}

func TestUnresolvedImportRejected(t *testing.T) {
	app := &module.Module{
		Name:    "app",
		Code:    []isa.Instr{{Op: isa.CALX, Imm: 0}, {Op: isa.RET}},
		Imports: []module.Import{{Name: "missing"}},
		Funcs:   []module.Func{{Name: "main", Entry: 0, End: 2, Exported: true}},
	}
	w := NewWorld(1)
	p := w.NewMachine("m0", 0).NewProcess("app", nil)
	if _, err := p.Load(app); err == nil {
		t.Fatal("unresolved import accepted")
	}
}

func TestRPCRoundTrip(t *testing.T) {
	// Server: recv into 8192, add 1 to first byte, reply.
	server := &module.Module{
		Name: "server",
		Code: []isa.Instr{
			{Op: isa.MOVI, A: 1, Imm: 7},    // endpoint
			{Op: isa.MOVI, A: 2, Imm: 8192}, // buf
			{Op: isa.MOVI, A: 3, Imm: 64},
			{Op: isa.SYS, Imm: isa.SysRPCRecv},
			{Op: isa.MOVI, A: 4, Imm: 8192},
			{Op: isa.LD, A: 5, B: 4},
			{Op: isa.ADDI, A: 5, B: 5, Imm: 1},
			{Op: isa.ST, A: 4, B: 5},
			{Op: isa.MOVI, A: 1, Imm: 7},
			{Op: isa.MOVI, A: 2, Imm: 0}, // status OK
			{Op: isa.MOVI, A: 3, Imm: 8192},
			{Op: isa.MOVI, A: 4, Imm: 8},
			{Op: isa.SYS, Imm: isa.SysRPCReply},
			{Op: isa.MOVI, A: 1, Imm: 0},
			{Op: isa.SYS, Imm: isa.SysExit},
		},
		Funcs: []module.Func{{Name: "main", Entry: 0, End: 15, Exported: true}},
	}
	// Client: store 41 at 8192, call endpoint 7, read reply at 8256.
	client := &module.Module{
		Name: "client",
		Code: []isa.Instr{
			{Op: isa.MOVI, A: 4, Imm: 8192},
			{Op: isa.MOVI, A: 5, Imm: 41},
			{Op: isa.ST, A: 4, B: 5},
			{Op: isa.MOVI, A: 1, Imm: 7},
			{Op: isa.MOVI, A: 2, Imm: 8192},
			{Op: isa.MOVI, A: 3, Imm: 8},
			{Op: isa.MOVI, A: 4, Imm: 8256},
			{Op: isa.SYS, Imm: isa.SysRPCCall},
			{Op: isa.MOVI, A: 6, Imm: 8260}, // reply payload after 4-byte len
			{Op: isa.LD, A: 1, B: 6},
			{Op: isa.SYS, Imm: isa.SysExit},
		},
		Funcs: []module.Func{{Name: "main", Entry: 0, End: 11, Exported: true}},
	}
	w := NewWorld(1)
	m1 := w.NewMachine("m1", 0)
	m2 := w.NewMachine("m2", 500)
	ps := m1.NewProcess("server", nil)
	pc := m2.NewProcess("client", nil)
	for _, pm := range []struct {
		p *Process
		m *module.Module
	}{{ps, server}, {pc, client}} {
		if _, err := pm.p.Load(pm.m); err != nil {
			t.Fatal(err)
		}
		if a := pm.p.AllocRegion(16384); a == 0 {
			t.Fatal("alloc")
		}
		if _, err := pm.p.StartMain(0); err != nil {
			t.Fatal(err)
		}
	}
	w.RegisterEndpoint(7, ps)
	w.Run(1_000_000, func() bool { return pc.Exited && ps.Exited })
	if !pc.Exited || !ps.Exited {
		t.Fatalf("client exited=%v server exited=%v", pc.Exited, ps.Exited)
	}
	if pc.ExitCode != 42 {
		t.Errorf("client exit = %d, want 42 (41+1 via RPC)", pc.ExitCode)
	}
}

func TestClockSkewAffectsTimestamp(t *testing.T) {
	w := NewWorld(1)
	a := w.NewMachine("a", 0)
	b := w.NewMachine("b", 12345)
	if b.Timestamp()-a.Timestamp() != 12345 {
		t.Errorf("skew not reflected: %d vs %d", a.Timestamp(), b.Timestamp())
	}
}

func TestJumpTableDispatchAndFault(t *testing.T) {
	code := []isa.Instr{
		{Op: isa.SYS, Imm: isa.SysGetArg}, // r0 = arg
		{Op: isa.MOV, A: 1, B: 0},
		{Op: isa.JTAB, A: 1, C: 2},
		{Op: isa.JMP, Imm: 5},
		{Op: isa.JMP, Imm: 7},
		{Op: isa.MOVI, A: 1, Imm: 10}, // case 0
		{Op: isa.SYS, Imm: isa.SysExit},
		{Op: isa.MOVI, A: 1, Imm: 20}, // case 1
		{Op: isa.SYS, Imm: isa.SysExit},
	}
	for arg, want := range map[uint64]int{0: 10, 1: 20} {
		p, _ := newProc(t, "jt", code)
		if _, err := p.StartMain(arg); err != nil {
			t.Fatal(err)
		}
		if err := RunProcess(p, 100000); err != nil {
			t.Fatal(err)
		}
		if p.ExitCode != want {
			t.Errorf("arg %d: exit = %d, want %d", arg, p.ExitCode, want)
		}
	}
	// Out-of-range index faults.
	p, _ := newProc(t, "jt", code)
	if _, err := p.StartMain(5); err != nil {
		t.Fatal(err)
	}
	RunProcess(p, 100000)
	if p.FatalSignal != SigSegv {
		t.Errorf("bad jump-table index: signal = %s", SignalName(p.FatalSignal))
	}
}

func TestMemcpyOverrunCorruptsNeighbors(t *testing.T) {
	// The Fidelity story: memcpy past an allocation corrupts the
	// neighboring data structure without an immediate fault.
	p, _ := newProc(t, "memcpy", []isa.Instr{
		{Op: isa.MOVI, A: 1, Imm: 8192}, // dst
		{Op: isa.MOVI, A: 2, Imm: 9000}, // src
		{Op: isa.MOVI, A: 3, Imm: 64},   // len: overruns the "8-byte object"
		{Op: isa.SYS, Imm: isa.SysMemcpy},
		{Op: isa.MOVI, A: 1, Imm: 0},
		{Op: isa.SYS, Imm: isa.SysExit},
	})
	p.AllocRegion(16384)
	for i := uint64(0); i < 64; i += 8 {
		p.WriteU64(9000+i, 0xAB)
		p.WriteU64(8192+8+i, 7) // "neighboring structure"
	}
	run(t, p)
	if p.FatalSignal != 0 {
		t.Fatalf("memcpy within address space must not fault: %s", SignalName(p.FatalSignal))
	}
	if v, _ := p.ReadU64(8192 + 16); v != 0xAB {
		t.Error("overrun did not corrupt the neighbor")
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() (int, uint64) {
		code := []isa.Instr{
			{Op: isa.SYS, Imm: isa.SysRand},
			{Op: isa.MOVI, A: 5, Imm: 1000},
			{Op: isa.MOD, A: 1, B: 0, C: 5},
			{Op: isa.SYS, Imm: isa.SysExit},
		}
		w := NewWorld(99)
		m := w.NewMachine("m", 0)
		p := m.NewProcess("d", nil)
		mod := &module.Module{Name: "d", Code: code,
			Funcs: []module.Func{{Name: "main", Entry: 0, End: 4, Exported: true}}}
		p.Load(mod)
		p.StartMain(0)
		RunProcess(p, 100000)
		return p.ExitCode, m.Clock()
	}
	e1, c1 := runOnce()
	e2, c2 := runOnce()
	if e1 != e2 || c1 != c2 {
		t.Errorf("nondeterministic: (%d,%d) vs (%d,%d)", e1, c1, e2, c2)
	}
}

// TestAllocRefusesUnmappableSizes: a size that rounds past 4 GiB, or a
// guest size of 2^32 or more, gets 0 and leaves the break where it
// was, so the next allocation starts there.
func TestAllocRefusesUnmappableSizes(t *testing.T) {
	p, _ := newProc(t, "alloc", []isa.Instr{
		{Op: isa.MOVI, A: 1, Imm: 1},
		{Op: isa.MOVI, A: 2, Imm: 32},
		{Op: isa.SHL, A: 1, B: 1, C: 2},
		{Op: isa.ADDI, A: 1, B: 1, Imm: 16},
		{Op: isa.SYS, Imm: isa.SysAlloc}, // alloc(2^32 + 16)
		{Op: isa.MOV, A: 5, B: isa.RV},
		{Op: isa.MOVI, A: 1, Imm: 16},
		{Op: isa.SYS, Imm: isa.SysAlloc}, // alloc(16)
		{Op: isa.MOV, A: 1, B: isa.RV},
		{Op: isa.BEQI, A: 5, C: 0, Imm: 11},
		{Op: isa.MOVI, A: 1, Imm: 1},
		{Op: isa.SYS, Imm: isa.SysExit}, // 11: exit(second address), or 1
	})
	if _, err := p.StartMain(0); err != nil {
		t.Fatal(err)
	}
	brk := p.brk
	if a := p.AllocRegion(0xFFFFFFF8); a != 0 || p.brk != brk {
		t.Errorf("AllocRegion(0xFFFFFFF8) = %d with the break at %d, want 0 with it unmoved at %d", a, p.brk, brk)
	}
	if err := RunProcess(p, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if p.ExitCode != int(brk) {
		t.Errorf("alloc(2^32+16) then alloc(16): exit %d, want 0 then the old break %d", p.ExitCode, brk)
	}
}
