package mvm

import (
	"fmt"
	"hash/fnv"

	"traceback/internal/vm"
)

// VM is one managed runtime instance hosted inside (or alongside) a
// native process — the JVM/.NET analog. It executes bytecode, owns
// its own trace buffers (paper §3.3: managed and native code share a
// process but trace as distinct runtimes), and bridges CALLNAT calls
// to the native process's code, fusing the managed caller and the
// native callee into one logical thread via SYNC records.
type VM struct {
	Machine *vm.Machine
	// Proc is the associated native process: the JNI bridge runs
	// native functions in it, and managed snaps report its identity.
	Proc *vm.Process
	Name string
	ID   uint64

	rt *ManagedRuntime

	modules []*LoadedMod
	threads map[int]*MThread
	nextTID int

	Out []byte

	// Exited/UncaughtExc report termination of the main thread;
	// Halted is set by the HALT bytecode (System.exit) and stops all
	// scheduling.
	Exited      bool
	Halted      bool
	HaltCode    int64
	UncaughtExc int

	// Cycle model: interpreting one bytecode costs more than one
	// native instruction (the interpretation overhead is why managed
	// probe overhead is relatively smaller — Table 3's 16–25% vs
	// SPECint's 60%).
	Cycles uint64

	// OnQuantum, when set, fires at the top of every Run quantum —
	// the managed VM's preemption point, where fault-injection
	// harnesses kill the VM (Halted) or raise async exceptions
	// (Interrupt). Nil in normal operation.
	OnQuantum func(v *VM)

	// pending holds asynchronous exceptions to deliver at the next
	// quantum, keyed by TID (Interrupt).
	pending map[int]int
}

// LoadedMod is one managed module load.
type LoadedMod struct {
	Mod      *Module
	CodeBase uint32 // managed code-address-space base
	DAGBase  uint32
	// statics is the module's static-field storage.
	statics []int64
}

// MThreadState is a managed thread state.
type MThreadState uint8

const (
	MRunnable MThreadState = iota
	MSleeping
	MDone
)

// MThread is a managed thread.
type MThread struct {
	TID    int
	State  MThreadState
	frames []*mframe
	wakeAt uint64
	Result int64
	// Uncaught is the exception code that killed the thread (0 ok).
	Uncaught int
}

type mframe struct {
	lm     *LoadedMod
	method int
	pc     uint32
	locals []int64
	stack  []int64
}

// New creates a managed VM attached to a machine and (optionally) a
// native process for JNI calls.
func New(mach *vm.Machine, proc *vm.Process, name string, cfg RuntimeConfig) *VM {
	v := &VM{
		Machine: mach,
		Proc:    proc,
		Name:    name,
		threads: map[int]*MThread{},
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "mvm/%s/%s", mach.Name, name)
	v.ID = h.Sum64()
	v.rt = newManagedRuntime(v, cfg)
	return v
}

// Runtime returns the managed trace runtime.
func (v *VM) Runtime() *ManagedRuntime { return v.rt }

// Load maps a managed module; instrumented modules get a DAG range
// (managed runtimes rebase exactly like native ones).
func (v *VM) Load(m *Module) (*LoadedMod, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	var base uint32
	for _, lm := range v.modules {
		base += lm.Mod.CodeLen()
	}
	lm := &LoadedMod{Mod: m, CodeBase: base, statics: make([]int64, m.NStatics)}
	if m.Instrumented {
		lm.DAGBase = v.rt.assignRange(m)
	}
	v.modules = append(v.modules, lm)
	return lm, nil
}

// Start spawns a managed thread at a method of the most recently
// loaded module (or any module exporting it).
func (v *VM) Start(method string, args ...int64) (*MThread, error) {
	for i := len(v.modules) - 1; i >= 0; i-- {
		lm := v.modules[i]
		me, mi, ok := lm.Mod.MethodByName(method)
		if !ok {
			continue
		}
		if len(args) != me.NArgs {
			return nil, fmt.Errorf("mvm: %s takes %d args, got %d", method, me.NArgs, len(args))
		}
		v.nextTID++
		t := &MThread{TID: v.nextTID}
		f := &mframe{lm: lm, method: mi, locals: make([]int64, me.NLocals)}
		copy(f.locals, args)
		t.frames = []*mframe{f}
		v.threads[t.TID] = t
		v.rt.onThreadStart(t)
		return t, nil
	}
	return nil, fmt.Errorf("mvm: no method %s", method)
}

func (f *mframe) push(x int64) { f.stack = append(f.stack, x) }
func (f *mframe) pop() int64 {
	x := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	return x
}

// codeAddr is the flattened managed code address of a frame position
// (used in exception records and mapfile line spans).
func (v *VM) codeAddr(f *mframe) uint64 {
	return uint64(f.lm.CodeBase + f.lm.Mod.MethodOffset(f.method) + f.pc)
}

// heap of arrays; index+1 is the reference (0 is null).
type heap struct {
	arrays [][]int64
}

func (h *heap) alloc(n int64) (int64, bool) {
	if n < 0 {
		return 0, false
	}
	h.arrays = append(h.arrays, make([]int64, n))
	return int64(len(h.arrays)), true
}

func (h *heap) get(ref int64) ([]int64, bool) {
	if ref <= 0 || int(ref) > len(h.arrays) {
		return nil, false
	}
	return h.arrays[ref-1], true
}

// Step executes up to n bytecodes of thread t. It returns false when
// the thread can no longer run.
func (v *VM) Step(t *MThread, n int) bool {
	if t.State == MSleeping {
		if v.Machine.Clock() >= t.wakeAt {
			t.State = MRunnable
		} else {
			return false
		}
	}
	if t.State != MRunnable {
		return false
	}
	for i := 0; i < n && t.State == MRunnable; i++ {
		v.step1(t)
	}
	return true
}

func (v *VM) charge(c uint64) {
	v.Machine.AddCycles(c)
	v.Cycles += c
}

// step1 executes one bytecode.
func (v *VM) step1(t *MThread) {
	f := t.frames[len(t.frames)-1]
	me := f.lm.Mod.Methods[f.method]
	if f.pc >= uint32(len(me.Code)) {
		// Fell off the method end: implicit return 0.
		v.ret(t, 0)
		return
	}
	in := me.Code[f.pc]
	v.charge(v.cost(in.Op))
	next := f.pc + 1

	switch in.Op {
	case NOP:
	case CONST:
		f.push(int64(in.Imm))
	case LOADL:
		f.push(f.locals[in.A])
	case STOREL:
		f.locals[in.A] = f.pop()
	case DUP:
		x := f.pop()
		f.push(x)
		f.push(x)
	case POP:
		f.pop()
	case ADD, SUB, MUL, AND, OR, XOR, SHL, SHR, CMPEQ, CMPNE, CMPLT, CMPLE:
		b := f.pop()
		a := f.pop()
		f.push(binop(in.Op, a, b))
	case DIV, MOD:
		b := f.pop()
		a := f.pop()
		if b == 0 {
			v.throw(t, ExcArith)
			return
		}
		if in.Op == DIV {
			f.push(a / b)
		} else {
			f.push(a % b)
		}
	case NEG:
		f.push(-f.pop())
	case GOTO:
		next = uint32(in.Imm)
	case IFZ:
		if f.pop() == 0 {
			next = uint32(in.Imm)
		}
	case IFNZ:
		if f.pop() != 0 {
			next = uint32(in.Imm)
		}
	case CALL:
		callee := f.lm.Mod.Methods[in.Imm]
		nf := &mframe{lm: f.lm, method: int(in.Imm), locals: make([]int64, callee.NLocals)}
		for i := callee.NArgs - 1; i >= 0; i-- {
			nf.locals[i] = f.pop()
		}
		f.pc = next
		t.frames = append(t.frames, nf)
		return
	case RET:
		v.ret(t, f.pop())
		return
	case NEWARR:
		n := f.pop()
		ref, ok := v.rt.heap.alloc(n)
		if !ok {
			v.throw(t, ExcNegSize)
			return
		}
		f.push(ref)
	case ALOAD:
		idx := f.pop()
		ref := f.pop()
		arr, ok := v.rt.heap.get(ref)
		if !ok {
			v.throw(t, ExcNull)
			return
		}
		if idx < 0 || idx >= int64(len(arr)) {
			v.throw(t, ExcBounds)
			return
		}
		f.push(arr[idx])
	case ASTORE:
		val := f.pop()
		idx := f.pop()
		ref := f.pop()
		arr, ok := v.rt.heap.get(ref)
		if !ok {
			v.throw(t, ExcNull)
			return
		}
		if idx < 0 || idx >= int64(len(arr)) {
			v.throw(t, ExcBounds)
			return
		}
		arr[idx] = val
	case ARRLEN:
		ref := f.pop()
		arr, ok := v.rt.heap.get(ref)
		if !ok {
			v.throw(t, ExcNull)
			return
		}
		f.push(int64(len(arr)))
	case THROW:
		v.throw(t, int(f.pop()))
		return
	case CALLNAT:
		f.pc = next
		v.callNative(t, f, f.lm.Mod.Natives[in.Imm])
		return
	case PRINT:
		v.Out = append(v.Out, []byte(fmt.Sprintf("%d\n", f.pop()))...)
	case PRINTS:
		v.Out = append(v.Out, f.lm.Mod.Consts[in.Imm]...)
	case CLOCKB:
		f.push(int64(v.Machine.Timestamp()))
	case RANDB:
		f.push(v.Machine.Rand().Int63())
	case SLEEPB:
		d := f.pop()
		if d < 0 {
			// The Oracle story (paper §6.1): sleep with a negative
			// argument throws.
			v.throw(t, ExcIllegalArg)
			return
		}
		t.State = MSleeping
		t.wakeAt = v.Machine.Clock() + uint64(d)
		v.rt.timestamp(t)
	case IOREAD:
		v.charge(vm.CostDiskBase + uint64(f.pop())*vm.CostDiskPerKB/1024)
		f.push(0)
	case NETSENDB:
		v.charge(vm.CostNetBase + uint64(f.pop())*vm.CostNetPerKB/1024)
		f.push(0)
	case SLOAD:
		f.push(f.lm.statics[in.A])
	case SSTORE:
		f.lm.statics[in.A] = f.pop()
	case SWAP:
		b := f.pop()
		a := f.pop()
		f.push(b)
		f.push(a)
	case HALT:
		code := f.pop()
		t.Result = code
		t.State = MDone
		v.rt.onThreadEnd(t)
		v.Exited = true
		v.Halted = true
		v.HaltCode = code
		return
	case PROBEH:
		v.rt.probeHeavy(t, uint32(in.Imm))
	case PROBEL:
		v.rt.probeLight(t, uint32(in.Imm))
	default:
		v.throw(t, ExcArith)
		return
	}
	f.pc = next
}

func binop(op Op, a, b int64) int64 {
	switch op {
	case ADD:
		return a + b
	case SUB:
		return a - b
	case MUL:
		return a * b
	case AND:
		return a & b
	case OR:
		return a | b
	case XOR:
		return a ^ b
	case SHL:
		return a << (uint64(b) & 63)
	case SHR:
		return a >> (uint64(b) & 63)
	case CMPEQ:
		return b2i(a == b)
	case CMPNE:
		return b2i(a != b)
	case CMPLT:
		return b2i(a < b)
	case CMPLE:
		return b2i(a <= b)
	}
	return 0
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (v *VM) cost(op Op) uint64 {
	switch op {
	case PROBEL:
		return v.rt.cfg.ProbeLCost
	case PROBEH:
		c := v.rt.cfg.ProbeHCost
		if v.rt.cfg.MTProbePenalty > 0 && v.liveThreads() > 1 {
			c += v.rt.cfg.MTProbePenalty
		}
		return c
	case CALL, CALLNAT, RET:
		return 5
	case ALOAD, ASTORE, NEWARR:
		return 4
	}
	return 3
}

func (v *VM) liveThreads() int {
	n := 0
	for _, t := range v.threads {
		if t.State != MDone {
			n++
		}
	}
	return n
}

// ret pops a frame.
func (v *VM) ret(t *MThread, val int64) {
	t.frames = t.frames[:len(t.frames)-1]
	if len(t.frames) == 0 {
		t.Result = val
		t.State = MDone
		v.rt.onThreadEnd(t)
		if t.TID == 1 {
			v.Exited = true
		}
		return
	}
	t.frames[len(t.frames)-1].push(val)
}

// throw dispatches a managed exception: the runtime sees it
// first-chance (writing the exception record with the faulting code
// address and snapping under policy — paper §2.4/§3.7.2), then the
// nearest matching handler up the stack takes it, or the thread dies.
func (v *VM) throw(t *MThread, code int) {
	f := t.frames[len(t.frames)-1]
	v.rt.onException(t, code, v.codeAddr(f))
	for len(t.frames) > 0 {
		f = t.frames[len(t.frames)-1]
		me := f.lm.Mod.Methods[f.method]
		for _, e := range me.Exc {
			if f.pc >= e.From && f.pc < e.To && (e.Code == 0 || int(e.Code) == code) {
				f.pc = e.Handler
				f.stack = f.stack[:0]
				f.push(int64(code))
				return
			}
		}
		t.frames = t.frames[:len(t.frames)-1]
	}
	// Uncaught: the thread dies; the main thread takes the VM down.
	t.Uncaught = code
	t.State = MDone
	v.rt.onUncaught(t, code)
	if t.TID == 1 {
		v.Exited = true
		v.UncaughtExc = code
	}
}

// AllDone is a Run predicate: every one of threads has finished.
func AllDone(threads []*MThread) func() bool {
	return func() bool {
		for _, th := range threads {
			if th.State != MDone {
				return false
			}
		}
		return true
	}
}

// Run drives managed threads round-robin until done returns true, no
// thread can make progress, or maxSteps quanta pass. Like a JVM, the
// first thread's exit sets Exited but live threads keep running.
func (v *VM) Run(maxSteps int, done func() bool) {
	for i := 0; i < maxSteps; i++ {
		if v.OnQuantum != nil {
			v.OnQuantum(v)
		}
		v.deliverInterrupts()
		if v.Halted || (done != nil && done()) {
			return
		}
		progress := false
		var minWake uint64
		sleepers := false
		for tid := 1; tid <= v.nextTID; tid++ {
			t := v.threads[tid]
			if t == nil {
				continue
			}
			if v.Step(t, 32) {
				progress = true
			} else if t.State == MSleeping {
				if !sleepers || t.wakeAt < minWake {
					minWake, sleepers = t.wakeAt, true
				}
			}
		}
		if !progress {
			if sleepers {
				v.Machine.SetClock(minWake)
				continue
			}
			return
		}
	}
}

// Interrupt schedules exception code to be thrown asynchronously on
// thread tid at the next scheduling quantum — the managed analog of
// vm.Machine.InjectSignal. Delivery goes through the normal throw
// path: the runtime sees it first-chance (exception record + snap
// policy), then handlers or thread death.
func (v *VM) Interrupt(tid, code int) {
	if v.pending == nil {
		v.pending = map[int]int{}
	}
	v.pending[tid] = code
}

// deliverInterrupts throws pending async exceptions on their target
// threads (ascending TID for determinism) at the quantum boundary,
// where no bytecode is mid-flight.
func (v *VM) deliverInterrupts() {
	if len(v.pending) == 0 {
		return
	}
	for tid := 1; tid <= v.nextTID; tid++ {
		code, ok := v.pending[tid]
		if !ok {
			continue
		}
		delete(v.pending, tid)
		t := v.threads[tid]
		if t == nil || t.State == MDone || len(t.frames) == 0 {
			continue
		}
		if t.State == MSleeping {
			t.State = MRunnable
		}
		v.throw(t, code)
	}
}

// Join waits (by running the VM) for a thread to finish.
func (v *VM) Join(t *MThread, maxSteps int) (int64, error) {
	v.Run(maxSteps, func() bool { return t.State == MDone })
	if t.State != MDone {
		return 0, fmt.Errorf("mvm: thread %d did not finish", t.TID)
	}
	return t.Result, nil
}
