// Package vm implements the synthetic platform TraceBack runs on: a
// deterministic, cycle-accounted machine with processes, preemptive
// round-robin threads, thread-local storage, signals, mutexes,
// dynamic module loading, abrupt termination, and cross-process /
// cross-machine RPC. It stands in for the paper's Windows/Unix + IA32
// substrate; see DESIGN.md §1 for the substitution argument.
package vm

import (
	"fmt"
	"math/rand"

	"traceback/internal/isa"
	"traceback/internal/module"
)

// Signal numbers (Unix-flavored).
const (
	SigInt  = 2  // Control-C
	SigIll  = 4  // bad opcode / wild jump
	SigKill = 9  // abrupt termination: no handler, no runtime notification
	SigSegv = 11 // bad memory access
	SigFpe  = 8  // divide by zero
	SigArg  = 33 // bad syscall argument (e.g. negative sleep)
	SigApp  = 30 // application-raised
)

// SignalName returns a printable name.
func SignalName(sig int) string {
	switch sig {
	case SigInt:
		return "SIGINT"
	case SigIll:
		return "SIGILL"
	case SigKill:
		return "SIGKILL"
	case SigSegv:
		return "SIGSEGV"
	case SigFpe:
		return "SIGFPE"
	case SigArg:
		return "SIGARG"
	case SigApp:
		return "SIGAPP"
	}
	return fmt.Sprintf("SIG(%d)", sig)
}

// Special return addresses outside any code range.
const (
	threadExitMarker    = uint64(1) << 40
	handlerReturnMarker = uint64(1)<<40 + 1
)

// Cycle costs for simulated devices. I/O dominance is what gives the
// web-server workloads their low instrumentation overhead (Table 2).
const (
	CostDiskPerKB       = 6000
	CostDiskBase        = 4000
	CostNetPerKB        = 1500
	CostNetBase         = 1000
	CrossMachineLatency = 20000
)

// ThreadState enumerates scheduler states.
type ThreadState uint8

const (
	Runnable ThreadState = iota
	Sleeping
	BlockedMutex
	BlockedJoin
	BlockedRPC
	Exited
)

func (s ThreadState) String() string {
	switch s {
	case Runnable:
		return "runnable"
	case Sleeping:
		return "sleeping"
	case BlockedMutex:
		return "blocked-mutex"
	case BlockedJoin:
		return "blocked-join"
	case BlockedRPC:
		return "blocked-rpc"
	case Exited:
		return "exited"
	}
	return "?"
}

// Thread is one thread of control in a process.
type Thread struct {
	Proc  *Process
	TID   int
	Regs  [isa.NumRegs]uint64
	PC    uint64
	TLS   [isa.NumTLSSlots]uint64
	State ThreadState

	StartArg  uint64
	ExitValue uint64
	// KilledAbruptly is set when the thread died without runtime
	// notification (kill -9); its TLS contents are considered lost.
	KilledAbruptly bool

	wakeAt      uint64
	blockedAddr uint32 // mutex address when BlockedMutex
	joinTID     int
	joinWaiters []*Thread

	// Signal-handler context stack.
	sigCtx []sigContext

	// rpc state
	rpcReply   []byte
	rpcReplyAt uint32
	rpcExt     []byte
	pendingReq *rpcMessage

	// stack bounds for diagnostics
	stackLo, stackHi uint32
}

type sigContext struct {
	regs [isa.NumRegs]uint64
	pc   uint64
	sig  int
}

// LoadedModule records one load of a module into a process.
type LoadedModule struct {
	Mod      *module.Module
	CodeBase uint32 // first instruction index in the process code space
	DataBase uint32 // data segment base address
	// DAGBase is the range base actually in use after any load-time
	// rebasing by the runtime.
	DAGBase  uint32
	Unloaded bool
	Handle   int
}

// Hooks is the interface the TraceBack runtime implements to observe
// and steer the process (the analog of the injected runtime library
// plus its OS hooks, paper §3.7). NullHooks is used when running
// uninstrumented.
type Hooks interface {
	// OnModuleLoad fires after code/data are mapped, before any of
	// the module's code runs. The runtime performs DAG rebasing here.
	OnModuleLoad(p *Process, lm *LoadedModule)
	OnModuleUnload(p *Process, lm *LoadedModule)
	// OnThreadStart fires before the thread's first instruction.
	OnThreadStart(t *Thread)
	// OnThreadExit fires at orderly termination (not kill -9).
	OnThreadExit(t *Thread)
	// OnBufferWrap services the probe helper (SysTBWrap); it returns
	// the address of the slot the new record should be written to and
	// must update TLS itself.
	OnBufferWrap(t *Thread) uint64
	// OnException fires first-chance, before any handler runs.
	OnException(t *Thread, sig int, addr uint64)
	// OnSignalReturn fires when a handler returns to interrupted code.
	OnSignalReturn(t *Thread)
	// OnSnapRequest services the snap API (SysSnap).
	OnSnapRequest(t *Thread, reason string)
	// OnSyscall fires for every syscall; the runtime inserts
	// timestamp records at synchronization points here (paper §3.5).
	OnSyscall(t *Thread, num int)
	// OnRPCSend returns the trace payload extension to attach to an
	// outgoing call (paper §5.1); OnRPCRecv consumes the peer's.
	OnRPCSend(t *Thread, reply bool) []byte
	OnRPCRecv(t *Thread, ext []byte, reply bool)
	// OnProcessExit fires at orderly or faulting exit (sig == 0 for
	// orderly); not at kill -9.
	OnProcessExit(p *Process, sig int)
}

// NullHooks is a no-op Hooks for uninstrumented runs.
type NullHooks struct{}

func (NullHooks) OnModuleLoad(*Process, *LoadedModule)   {}
func (NullHooks) OnModuleUnload(*Process, *LoadedModule) {}
func (NullHooks) OnThreadStart(*Thread)                  {}
func (NullHooks) OnThreadExit(*Thread)                   {}
func (NullHooks) OnBufferWrap(*Thread) uint64            { return 0 }
func (NullHooks) OnException(*Thread, int, uint64)       {}
func (NullHooks) OnSignalReturn(*Thread)                 {}
func (NullHooks) OnSnapRequest(*Thread, string)          {}
func (NullHooks) OnSyscall(*Thread, int)                 {}
func (NullHooks) OnRPCSend(*Thread, bool) []byte         { return nil }
func (NullHooks) OnRPCRecv(*Thread, []byte, bool)        {}
func (NullHooks) OnProcessExit(*Process, int)            {}

var _ Hooks = NullHooks{}

// Process is an address space plus threads.
type Process struct {
	Machine *Machine
	PID     int
	Name    string

	Mem  []byte
	brk  uint32 // bump allocator
	Code []isa.Instr

	Modules []*LoadedModule
	Threads map[int]*Thread
	nextTID int

	Hooks Hooks

	// Signal handlers: signal -> handler code address (0 = default).
	Handlers map[int]uint64

	mutexes map[uint32]*mutexState

	Exited   bool
	ExitCode int
	// FatalSignal records the signal that terminated the process
	// abnormally (0 for orderly exit).
	FatalSignal int

	// Console output (SysWrite fd 1/2).
	Out []byte

	// Instruction budget accounting for benchmarks.
	Cycles uint64

	// lastProgress is the machine clock the last time one of this
	// process's threads executed an instruction; the service process
	// uses it for hang detection.
	lastProgress uint64

	nextHandle int
}

type mutexState struct {
	owner   *Thread
	waiters []*Thread
}

// Machine hosts processes and a clock.
type Machine struct {
	World *World
	Name  string
	// ClockSkew offsets reported timestamps (distributed tracing
	// tests clock-skew compensation with this).
	ClockSkew int64
	clock     uint64
	procs     []*Process
	nextPID   int
	rng       *rand.Rand

	// Slice is the scheduling quantum in instructions.
	Slice int

	// OnStep, when set, is invoked before every instruction executes
	// (test oracle hook; nil in normal operation).
	OnStep func(t *Thread)

	// rrIndex implements round-robin across the machine's threads.
	rrIndex int

	// met is the machine's optional self-telemetry (EnableTelemetry);
	// nil means every instrumentation point is a single branch.
	met *machMetrics
}

// Clock returns the machine's raw cycle counter.
func (m *Machine) Clock() uint64 { return m.clock }

// AddCycles charges cycles to the machine clock (used by co-hosted
// runtimes such as the managed VM).
func (m *Machine) AddCycles(c uint64) { m.clock += c }

// SetClock advances the clock directly (idle-skip for co-hosted
// runtimes). It never moves the clock backward.
func (m *Machine) SetClock(c uint64) {
	if c > m.clock {
		m.clock = c
	}
}

// Timestamp returns the skewed wall-clock analog (RDTSC / gethrtime).
func (m *Machine) Timestamp() uint64 { return uint64(int64(m.clock) + m.ClockSkew) }

// Rand returns the machine's deterministic PRNG.
func (m *Machine) Rand() *rand.Rand { return m.rng }

// Procs returns the machine's processes (including exited ones, whose
// memory remains readable for post-mortem snaps).
func (m *Machine) Procs() []*Process { return m.procs }

// World is a set of machines connected by a network.
type World struct {
	Machines  []*Machine
	endpoints map[uint64]*endpoint
	seed      int64
	// injector, when set, is consulted at scheduling quanta and RPC
	// transport points (see inject.go); nil in normal operation.
	injector Injector
	// recorder, when set, observes the same nondeterminism sites the
	// injector may perturb (see record.go); nil in normal operation.
	recorder Recorder
	// quantum counts scheduling quanta world-globally (see Quantum).
	quantum uint64
}

type endpoint struct {
	proc    *Process
	queue   []*rpcMessage
	waiters []*Thread
}

type rpcMessage struct {
	from    *Thread
	payload []byte
	ext     []byte
	// deliverAt delays cross-machine messages.
	deliverAt uint64
}

// NewWorld creates an empty world with a deterministic seed.
func NewWorld(seed int64) *World {
	return &World{endpoints: map[uint64]*endpoint{}, seed: seed}
}

// NewMachine adds a machine.
func (w *World) NewMachine(name string, skew int64) *Machine {
	m := &Machine{
		World:     w,
		Name:      name,
		ClockSkew: skew,
		rng:       rand.New(rand.NewSource(w.seed + int64(len(w.Machines)) + 1)),
		Slice:     64,
	}
	w.Machines = append(w.Machines, m)
	return m
}

// DefaultMemSize is the per-process address-space size.
const DefaultMemSize = 16 << 20

// NewProcess creates a process with hooks (use NullHooks for
// uninstrumented runs). The low page is left unmapped so that null
// dereferences fault.
func (m *Machine) NewProcess(name string, hooks Hooks) *Process {
	if hooks == nil {
		hooks = NullHooks{}
	}
	m.nextPID++
	p := &Process{
		Machine:  m,
		PID:      m.nextPID,
		Name:     name,
		Mem:      make([]byte, DefaultMemSize),
		brk:      4096,
		Threads:  map[int]*Thread{},
		Hooks:    hooks,
		Handlers: map[int]uint64{},
		mutexes:  map[uint32]*mutexState{},
	}
	m.procs = append(m.procs, p)
	return p
}

// AllocRegion carves size bytes out of the address space (the analog
// of mapping a file or VirtualAlloc). Returns 0 on exhaustion.
func (p *Process) AllocRegion(size uint32) uint32 {
	size = (size + 15) &^ 15
	if uint64(p.brk)+uint64(size) > uint64(len(p.Mem)) {
		return 0
	}
	a := p.brk
	p.brk += size
	return a
}

// Load maps a module into the process: code is appended to the code
// space with branch targets rebased, GADDR/LDFN are resolved, CALX
// import references are bound, and the runtime hook runs (performing
// DAG rebasing for instrumented modules).
func (p *Process) Load(mod *module.Module) (*LoadedModule, error) {
	if err := mod.Validate(); err != nil {
		return nil, err
	}
	codeBase := uint32(len(p.Code))
	dataSize := uint32(len(mod.Data)) + mod.BSS
	var dataBase uint32
	if dataSize > 0 {
		dataBase = p.AllocRegion(dataSize)
		if dataBase == 0 {
			return nil, fmt.Errorf("vm: %s: out of memory loading %s", p.Name, mod.Name)
		}
		copy(p.Mem[dataBase:], mod.Data)
	}

	code := make([]isa.Instr, len(mod.Code))
	copy(code, mod.Code)
	for i := range code {
		in := &code[i]
		switch {
		case in.Op.HasCodeTarget():
			in.Imm += int32(codeBase)
		case in.Op == isa.GADDR:
			*in = isa.Instr{Op: isa.MOVI, A: in.A, Imm: int32(dataBase) + in.Imm}
		case in.Op == isa.LDFN:
			f := mod.Funcs[in.Imm]
			*in = isa.Instr{Op: isa.MOVI, A: in.A, Imm: int32(codeBase + f.Entry)}
		case in.Op == isa.CALX:
			im := mod.Imports[in.Imm]
			addr, err := p.resolveImport(im)
			if err != nil {
				return nil, err
			}
			*in = isa.Instr{Op: isa.CALL, Imm: int32(addr)}
		}
	}
	p.Code = append(p.Code, code...)

	p.nextHandle++
	lm := &LoadedModule{
		Mod:      mod,
		CodeBase: codeBase,
		DataBase: dataBase,
		DAGBase:  mod.DAGBase,
		Handle:   p.nextHandle,
	}
	p.Modules = append(p.Modules, lm)
	if m := p.Machine.met; m != nil {
		m.modLoads.Inc()
	}
	p.Hooks.OnModuleLoad(p, lm)
	return lm, nil
}

func (p *Process) resolveImport(im module.Import) (uint32, error) {
	for _, lm := range p.Modules {
		if lm.Unloaded {
			continue
		}
		if im.Module != "" && lm.Mod.Name != im.Module {
			continue
		}
		if f, ok := lm.Mod.FuncByName(im.Name); ok && f.Exported {
			return lm.CodeBase + f.Entry, nil
		}
	}
	return 0, fmt.Errorf("vm: %s: unresolved import %s!%s", p.Name, im.Module, im.Name)
}

// Unload marks a module unloaded (its code slots remain reserved, as
// with a real unmapped DLL whose address range is retired).
func (p *Process) Unload(lm *LoadedModule) {
	if lm.Unloaded {
		return
	}
	lm.Unloaded = true
	if w := p.Machine.World; w != nil && w.recorder != nil {
		w.recorder.RecordUnload(p, lm)
	}
	if m := p.Machine.met; m != nil {
		m.modUnl.Inc()
	}
	p.Hooks.OnModuleUnload(p, lm)
}

// DefaultStackSize is the per-thread stack size.
const DefaultStackSize = 64 << 10

// StartThread creates a runnable thread at the absolute code address
// entry with the given start argument.
func (p *Process) StartThread(entry uint64, arg uint64) (*Thread, error) {
	if entry >= uint64(len(p.Code)) {
		return nil, fmt.Errorf("vm: %s: thread entry %d outside code", p.Name, entry)
	}
	stack := p.AllocRegion(DefaultStackSize)
	if stack == 0 {
		return nil, fmt.Errorf("vm: %s: out of memory for thread stack", p.Name)
	}
	p.nextTID++
	t := &Thread{
		Proc:     p,
		TID:      p.nextTID,
		PC:       entry,
		State:    Runnable,
		StartArg: arg,
		stackLo:  stack,
		stackHi:  stack + DefaultStackSize,
	}
	t.Regs[isa.SP] = uint64(stack + DefaultStackSize)
	t.Regs[isa.A1] = arg
	// The thread "returns" out of its entry function into the exit
	// marker, terminating it cleanly.
	t.push(threadExitMarker)
	p.Threads[t.TID] = t
	if m := p.Machine.met; m != nil {
		m.threads.Inc()
	}
	p.Hooks.OnThreadStart(t)
	return t, nil
}

// StartMain loads nothing but starts the exported function named
// main (or the module's first exported function) of the most
// recently loaded module.
func (p *Process) StartMain(arg uint64) (*Thread, error) {
	if len(p.Modules) == 0 {
		return nil, fmt.Errorf("vm: %s: no modules loaded", p.Name)
	}
	lm := p.Modules[len(p.Modules)-1]
	f, ok := lm.Mod.FuncByName("main")
	if !ok {
		for _, fn := range lm.Mod.Funcs {
			if fn.Exported {
				f, ok = fn, true
				break
			}
		}
	}
	if !ok {
		return nil, fmt.Errorf("vm: %s: module %s has no main", p.Name, lm.Mod.Name)
	}
	return p.StartThread(uint64(lm.CodeBase+f.Entry), arg)
}

// Alive reports whether the process has any non-exited thread.
func (p *Process) Alive() bool {
	if p.Exited {
		return false
	}
	for _, t := range p.Threads {
		if t.State != Exited {
			return true
		}
	}
	return false
}

// LastProgress returns the machine clock at the process's last
// executed instruction (hang detection input).
func (p *Process) LastProgress() uint64 { return p.lastProgress }

// OutString returns captured console output.
func (p *Process) OutString() string { return string(p.Out) }
