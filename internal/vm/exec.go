package vm

import (
	"encoding/binary"
	"fmt"

	"traceback/internal/isa"
)

// Memory access helpers. All return ok=false on out-of-range or
// null-page access; the interpreter converts that into SIGSEGV.

func (p *Process) memOK(addr uint64, size uint64) bool {
	return addr >= 4096 && addr+size <= uint64(len(p.Mem))
}

// ReadU64 reads a 64-bit word (runtime/service use; no fault).
func (p *Process) ReadU64(addr uint64) (uint64, bool) {
	if !p.memOK(addr, 8) {
		return 0, false
	}
	return binary.LittleEndian.Uint64(p.Mem[addr:]), true
}

// WriteU64 writes a 64-bit word.
func (p *Process) WriteU64(addr uint64, v uint64) bool {
	if !p.memOK(addr, 8) {
		return false
	}
	binary.LittleEndian.PutUint64(p.Mem[addr:], v)
	return true
}

// ReadU32 reads a 32-bit word.
func (p *Process) ReadU32(addr uint64) (uint32, bool) {
	if !p.memOK(addr, 4) {
		return 0, false
	}
	return binary.LittleEndian.Uint32(p.Mem[addr:]), true
}

// WriteU32 writes a 32-bit word.
func (p *Process) WriteU32(addr uint64, v uint32) bool {
	if !p.memOK(addr, 4) {
		return false
	}
	binary.LittleEndian.PutUint32(p.Mem[addr:], v)
	return true
}

// ReadBytes copies n bytes out of process memory.
func (p *Process) ReadBytes(addr uint64, n uint64) ([]byte, bool) {
	if !p.memOK(addr, n) {
		return nil, false
	}
	out := make([]byte, n)
	copy(out, p.Mem[addr:addr+n])
	return out, true
}

// WriteBytes copies b into process memory.
func (p *Process) WriteBytes(addr uint64, b []byte) bool {
	if !p.memOK(addr, uint64(len(b))) {
		return false
	}
	copy(p.Mem[addr:], b)
	return true
}

func (t *Thread) push(v uint64) bool {
	t.Regs[isa.SP] -= 8
	return t.Proc.WriteU64(t.Regs[isa.SP], v)
}

func (t *Thread) pop() (uint64, bool) {
	v, ok := t.Proc.ReadU64(t.Regs[isa.SP])
	if ok {
		t.Regs[isa.SP] += 8
	}
	return v, ok
}

// stepResult describes why a thread stopped executing mid-slice.
type stepResult int

const (
	stepOK stepResult = iota
	stepBlocked
	// stepRetry blocks the thread WITHOUT advancing the PC: the
	// syscall re-executes when the thread wakes (RPC receive).
	stepRetry
	stepExited
	stepFault
)

// exec executes a single instruction of t. On a fault it returns
// stepFault with the signal; the caller routes it through the
// first-chance hook and signal dispatch.
func (m *Machine) exec(t *Thread) (stepResult, int) {
	p := t.Proc
	if t.PC >= uint64(len(p.Code)) {
		return stepFault, SigSegv
	}
	if m.OnStep != nil {
		m.OnStep(t)
	}
	in := p.Code[t.PC]
	m.clock += uint64(in.Cost())
	p.Cycles += uint64(in.Cost())
	p.lastProgress = m.clock
	r := &t.Regs
	next := t.PC + 1

	switch in.Op {
	case isa.NOP:
	case isa.MOVI:
		r[in.A] = uint64(int64(in.Imm))
	case isa.MOV:
		r[in.A] = r[in.B]
	case isa.ADD:
		r[in.A] = r[in.B] + r[in.C]
	case isa.SUB:
		r[in.A] = r[in.B] - r[in.C]
	case isa.MUL:
		r[in.A] = uint64(int64(r[in.B]) * int64(r[in.C]))
	case isa.DIV:
		if r[in.C] == 0 {
			return stepFault, SigFpe
		}
		r[in.A] = uint64(int64(r[in.B]) / int64(r[in.C]))
	case isa.MOD:
		if r[in.C] == 0 {
			return stepFault, SigFpe
		}
		r[in.A] = uint64(int64(r[in.B]) % int64(r[in.C]))
	case isa.AND:
		r[in.A] = r[in.B] & r[in.C]
	case isa.OR:
		r[in.A] = r[in.B] | r[in.C]
	case isa.XOR:
		r[in.A] = r[in.B] ^ r[in.C]
	case isa.SHL:
		r[in.A] = r[in.B] << (r[in.C] & 63)
	case isa.SHR:
		r[in.A] = uint64(int64(r[in.B]) >> (r[in.C] & 63))
	case isa.ADDI:
		r[in.A] = r[in.B] + uint64(int64(in.Imm))
	case isa.NEG:
		r[in.A] = -r[in.B]
	case isa.NOT:
		r[in.A] = ^r[in.B]
	case isa.CMPEQ:
		r[in.A] = b2u(r[in.B] == r[in.C])
	case isa.CMPNE:
		r[in.A] = b2u(r[in.B] != r[in.C])
	case isa.CMPLT:
		r[in.A] = b2u(int64(r[in.B]) < int64(r[in.C]))
	case isa.CMPLE:
		r[in.A] = b2u(int64(r[in.B]) <= int64(r[in.C]))
	case isa.BEQ:
		if r[in.A] == r[in.B] {
			next = uint64(in.Imm)
		}
	case isa.BNE:
		if r[in.A] != r[in.B] {
			next = uint64(in.Imm)
		}
	case isa.BLT:
		if int64(r[in.A]) < int64(r[in.B]) {
			next = uint64(in.Imm)
		}
	case isa.BLE:
		if int64(r[in.A]) <= int64(r[in.B]) {
			next = uint64(in.Imm)
		}
	case isa.BGT:
		if int64(r[in.A]) > int64(r[in.B]) {
			next = uint64(in.Imm)
		}
	case isa.BGE:
		if int64(r[in.A]) >= int64(r[in.B]) {
			next = uint64(in.Imm)
		}
	case isa.BEQI:
		if int64(r[in.A]) == int64(int8(in.C)) {
			next = uint64(in.Imm)
		}
	case isa.BNEI:
		if int64(r[in.A]) != int64(int8(in.C)) {
			next = uint64(in.Imm)
		}
	case isa.JMP:
		next = uint64(in.Imm)
	case isa.JTAB:
		idx := int64(r[in.A])
		if idx < 0 || idx >= int64(in.C) {
			return stepFault, SigSegv
		}
		next = t.PC + 1 + uint64(idx)
	case isa.CALL:
		if !t.push(t.PC + 1) {
			return stepFault, SigSegv
		}
		next = uint64(in.Imm)
	case isa.CALR:
		target := r[in.A]
		if target >= uint64(len(p.Code)) {
			return stepFault, SigSegv
		}
		if !t.push(t.PC + 1) {
			return stepFault, SigSegv
		}
		next = target
	case isa.CALX, isa.GADDR, isa.LDFN:
		// These are resolved at load time; reaching one means the
		// code was never properly loaded.
		return stepFault, SigIll
	case isa.RET:
		ra, ok := t.pop()
		if !ok {
			return stepFault, SigSegv
		}
		switch {
		case ra == threadExitMarker:
			t.ExitValue = r[isa.RV]
			m.exitThread(t)
			return stepExited, 0
		case ra == handlerReturnMarker:
			m.returnFromSignal(t)
			return stepOK, 0
		case ra >= uint64(len(p.Code)):
			// Wild return: a corrupted stack (the Figure 5 story).
			return stepFault, SigSegv
		default:
			next = ra
		}
	case isa.LD:
		v, ok := p.ReadU64(r[in.B] + uint64(int64(in.Imm)))
		if !ok {
			return stepFault, SigSegv
		}
		r[in.A] = v
	case isa.ST:
		if !p.WriteU64(r[in.A]+uint64(int64(in.Imm)), r[in.B]) {
			return stepFault, SigSegv
		}
	case isa.LD4:
		v, ok := p.ReadU32(r[in.B] + uint64(int64(in.Imm)))
		if !ok {
			return stepFault, SigSegv
		}
		r[in.A] = uint64(int64(int32(v))) // sign-extend (sentinel check)
	case isa.ST4:
		if !p.WriteU32(r[in.A]+uint64(int64(in.Imm)), uint32(r[in.B])) {
			return stepFault, SigSegv
		}
	case isa.STI4:
		if !p.WriteU32(r[in.A], uint32(in.Imm)) {
			return stepFault, SigSegv
		}
	case isa.ORM4:
		v, ok := p.ReadU32(r[in.A])
		if !ok {
			return stepFault, SigSegv
		}
		if !p.WriteU32(r[in.A], v|uint32(in.Imm)) {
			return stepFault, SigSegv
		}
	case isa.PUSH:
		if !t.push(r[in.A]) {
			return stepFault, SigSegv
		}
	case isa.POP:
		v, ok := t.pop()
		if !ok {
			return stepFault, SigSegv
		}
		r[in.A] = v
	case isa.TLSLD:
		r[in.A] = t.TLS[in.C%isa.NumTLSSlots]
	case isa.TLSST:
		t.TLS[in.C%isa.NumTLSSlots] = r[in.A]
	case isa.SYS:
		res, sig := m.syscall(t, int(in.Imm))
		if res == stepFault {
			return stepFault, sig
		}
		if res == stepRetry {
			return stepBlocked, 0 // PC stays on the SYS instruction
		}
		t.PC = next
		return res, 0
	case isa.HLT:
		return stepFault, SigIll
	default:
		return stepFault, SigIll
	}
	t.PC = next
	return stepOK, 0
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// RPCServerFault is the status a blocked RPC caller receives when the
// serving thread dies of an unhandled fault (the DCOM
// RPC_E_SERVERFAULT analog of Figure 6).
const RPCServerFault = 0x80010105

// fault routes a fault through the first-chance hook (paper §3.7.2)
// and then either runs a registered handler or terminates the process
// abnormally.
func (m *Machine) fault(t *Thread, sig int) {
	p := t.Proc
	if m.met != nil {
		m.met.faults.Inc()
	}
	p.Hooks.OnException(t, sig, t.PC)
	if h, ok := p.Handlers[sig]; ok && h != 0 && len(t.sigCtx) < 8 {
		if m.met != nil {
			m.met.signals.Inc()
		}
		// Save context, enter the handler with the signal number as
		// its argument; its RET unwinds through the marker.
		ctx := sigContext{regs: t.Regs, pc: t.PC, sig: sig}
		t.sigCtx = append(t.sigCtx, ctx)
		t.push(handlerReturnMarker)
		t.Regs[isa.A1] = uint64(sig)
		t.PC = h
		return
	}
	// A dying RPC server must not strand its caller: the fault is
	// converted to an error status on the client side (Figure 6).
	ReplyToFault(t, RPCServerFault)
	m.terminate(p, sig)
}

// returnFromSignal restores the interrupted context. For synchronous
// faults, resuming re-executes the faulting instruction (a handler
// that does not repair state will fault again, as on real hardware);
// we resume at the next instruction instead for non-repairable
// synthetic faults, matching the re-raise semantics the runtime needs
// to trace "where control resumed" (paper §3.7.3).
func (m *Machine) returnFromSignal(t *Thread) {
	if len(t.sigCtx) == 0 {
		m.terminate(t.Proc, SigIll)
		return
	}
	ctx := t.sigCtx[len(t.sigCtx)-1]
	t.sigCtx = t.sigCtx[:len(t.sigCtx)-1]
	t.Regs = ctx.regs
	t.PC = ctx.pc + 1 // resume after the interrupted instruction
	t.Proc.Hooks.OnSignalReturn(t)
}

// terminate ends the process abnormally (sig != 0) or normally.
func (m *Machine) terminate(p *Process, sig int) {
	if p.Exited {
		return
	}
	p.Exited = true
	p.FatalSignal = sig
	p.Hooks.OnProcessExit(p, sig)
	for _, t := range p.Threads {
		if t.State != Exited {
			t.State = Exited
		}
	}
}

// KillProcess terminates the process abruptly (kill -9): no hook, no
// handler — the trace buffers hold whatever sub-buffering committed.
func (m *Machine) KillProcess(p *Process) {
	if p.Exited {
		return
	}
	if m.World != nil && m.World.recorder != nil {
		m.World.recorder.RecordKill(m, p)
	}
	p.Exited = true
	p.FatalSignal = SigKill
	for _, t := range p.Threads {
		if t.State != Exited {
			t.State = Exited
			t.KilledAbruptly = true
		}
	}
}

func (m *Machine) exitThread(t *Thread) {
	t.State = Exited
	t.Proc.Hooks.OnThreadExit(t)
	for _, w := range t.joinWaiters {
		if w.State == BlockedJoin && w.joinTID == t.TID {
			w.State = Runnable
			w.Regs[isa.RV] = t.ExitValue
		}
	}
	t.joinWaiters = nil
}

// runnable collects threads that can run now, waking sleepers.
func (m *Machine) runnable() []*Thread {
	var out []*Thread
	for _, p := range m.procs {
		if p.Exited {
			continue
		}
		for _, t := range p.Threads {
			switch t.State {
			case Sleeping:
				if m.clock >= t.wakeAt {
					t.State = Runnable
					out = append(out, t)
				}
			case Runnable:
				out = append(out, t)
			}
		}
	}
	// Deterministic order.
	sortThreads(out)
	return out
}

func sortThreads(ts []*Thread) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && threadLess(ts[j], ts[j-1]); j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

func threadLess(a, b *Thread) bool {
	if a.Proc.PID != b.Proc.PID {
		return a.Proc.PID < b.Proc.PID
	}
	return a.TID < b.TID
}

// Step runs one scheduling quantum on the machine: the next runnable
// thread executes up to Slice instructions. It returns false when no
// thread could run (all exited, blocked, or sleeping).
func (m *Machine) Step() bool {
	if m.World != nil {
		m.World.quantum++
		if m.World.injector != nil {
			m.World.injector.AtQuantum(m)
		}
	}
	ts := m.runnable()
	if len(ts) == 0 {
		// Advance the clock to the nearest sleeper's wake time so
		// sleep-only idle periods pass.
		var wake uint64
		found := false
		for _, p := range m.procs {
			if p.Exited {
				continue
			}
			for _, t := range p.Threads {
				if t.State == Sleeping && (!found || t.wakeAt < wake) {
					wake, found = t.wakeAt, true
				}
			}
		}
		if found {
			m.clock = wake
			return true
		}
		return false
	}
	m.rrIndex = (m.rrIndex + 1) % len(ts)
	t := ts[m.rrIndex]
	if m.World != nil && m.World.recorder != nil {
		m.World.recorder.RecordQuantum(m, t)
	}
	for i := 0; i < m.Slice; i++ {
		if t.State != Runnable || t.Proc.Exited {
			break
		}
		res, sig := m.exec(t)
		switch res {
		case stepFault:
			m.fault(t, sig)
		case stepBlocked, stepExited:
			return true
		}
	}
	return true
}

// Run steps the machine until done returns true, no thread can run,
// or maxSteps quanta elapse. It returns the number of quanta used.
func (m *Machine) Run(maxSteps int, done func() bool) int {
	for i := 0; i < maxSteps; i++ {
		if done != nil && done() {
			return i
		}
		if !m.Step() {
			return i
		}
	}
	return maxSteps
}

// Run steps the world until done returns true or nothing can run,
// always advancing the machine with the lowest clock (keeping skewed
// clocks causally plausible). Returns the quanta used.
func (w *World) Run(maxSteps int, done func() bool) int {
	for i := 0; i < maxSteps; i++ {
		if done != nil && done() {
			return i
		}
		var pick *Machine
		for _, m := range w.Machines {
			if pick == nil || m.clock < pick.clock {
				pick = m
			}
		}
		if pick == nil {
			return i
		}
		if !pick.Step() {
			// This machine is idle; try the others once, and if all
			// are idle, stop.
			idleAll := true
			for _, m := range w.Machines {
				if m.Step() {
					idleAll = false
					break
				}
			}
			if idleAll {
				return i
			}
		}
	}
	return maxSteps
}

// RunProcess drives a single-machine world until the process exits;
// convenience for workloads and tests.
func RunProcess(p *Process, maxSteps int) error {
	n := p.Machine.World.Run(maxSteps, func() bool { return p.Exited })
	if !p.Exited && n >= maxSteps {
		return fmt.Errorf("vm: process %s did not finish in %d quanta", p.Name, maxSteps)
	}
	return nil
}
