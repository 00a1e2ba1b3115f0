package tbrt

import (
	"traceback/internal/isa"
	"traceback/internal/trace"
	"traceback/internal/vm"
)

var _ vm.Hooks = (*Runtime)(nil)

// OnThreadStart puts the new thread on the probation buffer: its
// first probe will take a buffer_wrap and only then is a real buffer
// assigned, so threads that never execute instrumented code cost
// nothing (paper §3.1).
func (rt *Runtime) OnThreadStart(t *vm.Thread) {
	rt.byThread[t.TID] = rt.probation
	rt.setTLSPtr(t, rt.probation.dataAddr)
}

// OnThreadExit writes the thread-termination record and frees the
// buffer for reassignment. A thread serving a JNI-style in-process
// call writes its reply-side SYNC here: returning from the native
// function IS the reply (paper §3.3/§5.1).
func (rt *Runtime) OnThreadExit(t *vm.Thread) {
	if rt.jniBound[t.TID] {
		if s, ext, ok := rt.lt.Send(t.TID, true); ok {
			s.TS = rt.now()
			rt.appendEvent(t, trace.AppendSync(nil, s))
			rt.jniReply[t.TID] = ext
		}
		delete(rt.jniBound, t.TID)
	}
	rt.releaseBuffer(t, true)
	rt.lt.Drop(t.TID)
}

// BindJNI binds a freshly spawned native thread into the managed
// caller's logical thread (the JNI analog of an RPC receive). The
// thread is about to execute instrumented code, so it leaves
// probation immediately: the call-recv SYNC must land in a real
// buffer.
func (rt *Runtime) BindJNI(t *vm.Thread, ext []byte) {
	if b := rt.byThread[t.TID]; b == nil || b.kind == bufProbation {
		rt.assignBuffer(t)
	}
	rt.OnRPCRecv(t, ext, false)
	rt.jniBound[t.TID] = true
}

// TakeJNIReply returns (and consumes) the reply-side SYNC payload the
// exited JNI thread left for the managed caller.
func (rt *Runtime) TakeJNIReply(tid int) []byte {
	ext := rt.jniReply[tid]
	delete(rt.jniReply, tid)
	return ext
}

// OnBufferWrap services the probe helper: the probe hit the sentinel,
// so commit/zero sub-buffers (or leave probation / desperation) and
// return the slot for the pending DAG record (paper §3.1).
func (rt *Runtime) OnBufferWrap(t *vm.Thread) uint64 {
	b := rt.byThread[t.TID]
	if b == nil || b.kind == bufProbation {
		b = rt.assignBuffer(t)
	}
	return rt.allocSlot(t, b)
}

// OnModuleLoad performs DAG rebasing (paper §2.3) and TLS-index
// fixups (paper §2.5) on the freshly mapped code.
func (rt *Runtime) OnModuleLoad(p *vm.Process, lm *vm.LoadedModule) {
	li := &loadedInfo{lm: lm}
	rt.modules = append(rt.modules, li)
	mod := lm.Mod
	if !mod.Instrumented || mod.DAGCount == 0 {
		return
	}

	base, ok := rt.chooseBase(mod.Name, mod.ChecksumHex(), mod.DAGBase, mod.DAGCount)
	if !ok {
		// ID space exhausted: rewrite every probe to the bad-DAG ID.
		// The module runs untraced but unharmed (paper §2.3).
		li.badDAG = true
		rt.met.badDAGs.Inc()
		rt.event("bad-dag", mod.Name)
		for _, fx := range mod.DAGFixups {
			p.Code[lm.CodeBase+fx].Imm = int32(trace.DAGWord(trace.BadDAGID, 0))
		}
		rt.fixTLS(p, lm)
		return
	}
	if base != mod.DAGBase {
		rt.met.rebased.Inc()
		for _, fx := range mod.DAGFixups {
			in := &p.Code[lm.CodeBase+fx]
			local := trace.DAGID(uint32(in.Imm)) - mod.DAGBase
			in.Imm = int32(trace.DAGWord(base+local, 0))
		}
	}
	lm.DAGBase = base
	rt.ranges = append(rt.ranges, dagRange{base: base, count: mod.DAGCount, checksum: mod.ChecksumHex()})
	rt.byChecksum[mod.ChecksumHex()] = base
	rt.fixTLS(p, lm)
}

// fixTLS rewrites probe TLS indexes when the runtime could not
// reserve the default slot (paper §2.5's fixup table).
func (rt *Runtime) fixTLS(p *vm.Process, lm *vm.LoadedModule) {
	slot := uint8(rt.cfg.TLSSlot % isa.NumTLSSlots)
	if slot == isa.TLSSlot {
		return
	}
	for _, fx := range lm.Mod.TLSFixups {
		p.Code[lm.CodeBase+fx].C = slot
	}
}

// chooseBase picks a conflict-free DAG base: the DAG base file entry,
// the checksum-remembered base from a previous load (so reload does
// not leak ID space), the module's default, or the first free gap.
func (rt *Runtime) chooseBase(name, checksum string, def, count uint32) (uint32, bool) {
	try := func(base uint32) bool {
		if base+count > trace.MaxDAGID {
			return false
		}
		for _, r := range rt.ranges {
			if base < r.base+r.count && r.base < base+count {
				return false
			}
		}
		return true
	}
	if b, ok := rt.cfg.DAGBases[name]; ok && try(b) {
		return b, true
	}
	if b, ok := rt.byChecksum[checksum]; ok && try(b) {
		return b, true
	}
	if try(def) {
		return def, true
	}
	// First-fit scan over gaps between existing ranges.
	var base uint32
	for {
		if try(base) {
			return base, true
		}
		moved := false
		for _, r := range rt.ranges {
			if base >= r.base && base < r.base+r.count {
				base = r.base + r.count
				moved = true
			}
		}
		if !moved {
			base++
		}
		if base+count > trace.MaxDAGID {
			return 0, false
		}
	}
}

// OnModuleUnload releases the module's DAG range while remembering
// its checksum->base association for a future reload (paper §2.3).
func (rt *Runtime) OnModuleUnload(p *vm.Process, lm *vm.LoadedModule) {
	sum := lm.Mod.ChecksumHex()
	for i, r := range rt.ranges {
		if r.checksum == sum && r.base == lm.DAGBase {
			rt.ranges = append(rt.ranges[:i], rt.ranges[i+1:]...)
			break
		}
	}
}

// OnException is the first-chance hook (paper §3.7.2): it records the
// exception (signal + faulting code address + timestamp) so that
// reconstruction can cut the trace at the exact source line, saves
// the in-progress DAG record for re-issue after any handler, and
// applies snap policy.
func (rt *Runtime) OnException(t *vm.Thread, sig int, addr uint64) {
	rt.lastFaultAddr[sig] = addr
	rt.savedDAG[t.TID] = nil
	if b := rt.byThread[t.TID]; b != nil && b.kind != bufProbation {
		if cur, ok := rt.proc.ReadU32(rt.tlsPtr(t)); ok && trace.IsDAG(cur) {
			rt.savedDAG[t.TID] = []trace.Word{cur}
		}
		rt.appendWordsRaw(t, b, trace.AppendException(nil, trace.Exception{
			Code: uint16(sig), Addr: addr, TS: rt.now(),
		}))
	}
	if rt.cfg.Policy.snapOnException(sig) {
		rt.TakeSnap(SnapReason{Kind: "exception", Detail: vm.SignalName(sig), TID: t.TID, Signal: sig, Addr: addr})
	}
}

// OnSignalReturn writes the exception-end record — reconstruction
// uses it to mark where control resumed (paper §3.7.3) — and
// re-issues the interrupted DAG record.
func (rt *Runtime) OnSignalReturn(t *vm.Thread) {
	b := rt.byThread[t.TID]
	if b == nil || b.kind == bufProbation {
		return
	}
	words := trace.AppendExceptionEnd(nil, rt.now())
	rt.appendWordsRaw(t, b, words)
	if saved := rt.savedDAG[t.TID]; len(saved) == 1 {
		rt.appendWordsRaw(t, b, trace.AppendReissueMark(nil))
		slot := rt.allocSlot(t, b)
		rt.proc.WriteU32(slot, saved[0])
		delete(rt.savedDAG, t.TID)
	}
}

// OnSnapRequest services the snap API (paper §3.6).
func (rt *Runtime) OnSnapRequest(t *vm.Thread, reason string) {
	if rt.cfg.Policy.API {
		rt.TakeSnap(SnapReason{Kind: "api", Detail: reason, TID: t.TID})
	}
}

// OnProcessExit fires at orderly exit and at fatal signals. Fatal
// exits snap under policy; the suppression table prevents a duplicate
// when the first-chance exception hook already snapped this fault.
func (rt *Runtime) OnProcessExit(p *vm.Process, sig int) {
	if sig != 0 && rt.cfg.Policy.Fatal {
		// Use the first-chance fault address so this snap shares its
		// suppression key with the exception snap for the same fault
		// (no duplicate snaps for one death, paper §3.6.2).
		rt.TakeSnap(SnapReason{
			Kind: "exception", Detail: "fatal " + vm.SignalName(sig),
			Signal: sig, Addr: rt.lastFaultAddr[sig],
		})
	}
	// Orderly release of all live threads' buffers.
	for tid, t := range p.Threads {
		if _, owned := rt.byThread[tid]; owned && !t.KilledAbruptly {
			rt.releaseBuffer(t, true)
		}
	}
}

// syncSyscalls lists the OS artifacts at which instrumentation
// heuristically inserts timestamp probes (paper §3.5): thread and
// synchronization operations, where cross-thread ordering matters.
var syncSyscalls = map[int]bool{
	isa.SysThreadCreate: true,
	isa.SysThreadJoin:   true,
	isa.SysSleep:        true,
	isa.SysMutexLock:    true,
	isa.SysMutexUnlock:  true,
	isa.SysYield:        true,
}

// OnSyscall inserts timestamp records at synchronization points so
// reconstruction can build a plausible cross-thread interleaving and
// hang views can name the blocking line (the record carries the SYS
// instruction's code address).
func (rt *Runtime) OnSyscall(t *vm.Thread, num int) {
	if syncSyscalls[num] {
		rt.appendEvent(t, trace.AppendSyscallMark(nil, trace.SyscallMark{
			Num: uint16(num), Addr: t.PC, TS: rt.now(),
		}))
	}
}

// OnRPCSend implements the caller/callee send sides of paper §5.1:
// bind (or reuse) a logical thread for the physical thread, write a
// SYNC record, and return the (runtime ID, logical thread ID, seq)
// extension for the payload.
func (rt *Runtime) OnRPCSend(t *vm.Thread, reply bool) []byte {
	s, ext, ok := rt.lt.Send(t.TID, reply)
	if !ok {
		return nil // replying to a call we never saw; nothing to stitch
	}
	rt.writeSync(t, s)
	return ext
}

// OnRPCRecv implements the receive sides: adopt the caller's logical
// thread at the next sequence number and record the SYNC.
func (rt *Runtime) OnRPCRecv(t *vm.Thread, ext []byte, reply bool) {
	if s, ok := rt.lt.Recv(t.TID, ext, reply); ok {
		rt.writeSync(t, s)
	}
}

func (rt *Runtime) writeSync(t *vm.Thread, s trace.Sync) {
	s.TS = rt.now()
	rt.appendEvent(t, trace.AppendSync(nil, s))
	rt.met.syncs.Inc()
	rt.event("rpc-sync", s.Point.String())
}
