package mvm

import (
	"encoding/binary"
	"fmt"

	"traceback/internal/snap"
	"traceback/internal/trace"
	"traceback/internal/vm"
)

// RuntimeConfig sizes the managed trace runtime.
type RuntimeConfig struct {
	// BufferWords per managed thread buffer (default 8192).
	BufferWords int
	// SnapOnUncaught snaps when an exception kills a thread.
	SnapOnUncaught bool
	// SnapOnException snaps first-chance on every managed exception
	// (paper: a snap trigger "like an ArrayIndexOutOfBounds exception
	// in Java"), subject to suppression.
	SnapOnException bool
	// ProbeHCost / ProbeLCost are the cycle costs of managed probes.
	// They are platform-dependent (TLS and memory-system speed differ
	// across the paper's Win/Lin/Sun systems); defaults 6 and 2.
	ProbeHCost uint64
	ProbeLCost uint64
	// MTProbePenalty adds cycles per heavyweight probe when more
	// than one managed thread is live — the cache-contention effect
	// that makes Table 3's 5-warehouse ratios slightly worse than
	// 1-warehouse.
	MTProbePenalty uint64
}

func (c RuntimeConfig) withDefaults() RuntimeConfig {
	if c.BufferWords == 0 {
		c.BufferWords = 8192
	}
	if c.ProbeHCost == 0 {
		c.ProbeHCost = 6
	}
	if c.ProbeLCost == 0 {
		c.ProbeLCost = 2
	}
	return c
}

// ManagedRuntime is the managed-side TraceBack runtime: its own trace
// buffers and runtime ID, distinct from the native runtime in the
// same process (paper §3.3 treats Java+native as distributed tracing
// within one process).
type ManagedRuntime struct {
	v   *VM
	cfg RuntimeConfig

	heap heap

	bufs    map[int]*mbuf
	nextDAG uint32
	lt      *trace.LogicalThreads

	suppress map[string]int
	snaps    []*snap.Snap
}

type mbuf struct {
	tid   int
	words []trace.Word
	// cur is the index of the last written record (-1 when empty).
	cur     int
	wrapped bool
}

func newManagedRuntime(v *VM, cfg RuntimeConfig) *ManagedRuntime {
	return &ManagedRuntime{
		v:        v,
		cfg:      cfg.withDefaults(),
		bufs:     map[int]*mbuf{},
		lt:       trace.NewLogicalThreads(v.ID),
		suppress: map[string]int{},
	}
}

// Snaps returns snaps taken by the managed runtime.
func (rt *ManagedRuntime) Snaps() []*snap.Snap { return rt.snaps }

// assignRange allocates a DAG ID range for an instrumented module.
func (rt *ManagedRuntime) assignRange(m *Module) uint32 {
	base := rt.nextDAG
	rt.nextDAG += m.DAGCount
	return base
}

func (rt *ManagedRuntime) buf(t *MThread) *mbuf {
	b := rt.bufs[t.TID]
	if b == nil {
		b = &mbuf{tid: t.TID, words: make([]trace.Word, 0, rt.cfg.BufferWords), cur: -1}
		rt.bufs[t.TID] = b
	}
	return b
}

func (b *mbuf) append(w trace.Word, limit int) {
	if len(b.words) < limit {
		b.words = append(b.words, w)
		b.cur = len(b.words) - 1
		return
	}
	b.cur = (b.cur + 1) % limit
	b.words[b.cur] = w
	b.wrapped = true
}

func (rt *ManagedRuntime) appendWords(t *MThread, words []trace.Word) {
	b := rt.buf(t)
	for _, w := range words {
		b.append(w, rt.cfg.BufferWords)
	}
}

// probeHeavy begins a new DAG record (the rebased record word is
// pre-computed into the probe's immediate at instrumentation time,
// with the runtime's range applied at load).
func (rt *ManagedRuntime) probeHeavy(t *MThread, word uint32) {
	// Apply the module's load-time base: the probe word carries the
	// instrumentation-time ID, already module-relative, and the
	// loaded module knows its assigned base.
	f := t.frames[len(t.frames)-1]
	id := trace.DAGID(word) + f.lm.DAGBase
	rt.appendWords(t, []trace.Word{trace.DAGWord(id, 0)})
}

// probeLight ORs a line-boundary bit into the current record.
func (rt *ManagedRuntime) probeLight(t *MThread, bits uint32) {
	b := rt.buf(t)
	if b.cur >= 0 && trace.IsDAG(b.words[b.cur]) {
		b.words[b.cur] |= trace.Word(bits) & trace.PathMask
	}
}

func (rt *ManagedRuntime) now() uint64 { return rt.v.Machine.Timestamp() }

func (rt *ManagedRuntime) timestamp(t *MThread) {
	rt.appendEvent(t, trace.AppendTimestamp(nil, rt.now()))
}

// appendEvent writes extended records, re-issuing any in-progress DAG
// record just as the native runtime does.
func (rt *ManagedRuntime) appendEvent(t *MThread, words []trace.Word) {
	b := rt.buf(t)
	var cur trace.Word
	haveCur := b.cur >= 0 && trace.IsDAG(b.words[b.cur])
	if haveCur {
		cur = b.words[b.cur]
	}
	rt.appendWords(t, words)
	if haveCur {
		rt.appendWords(t, trace.AppendReissueMark(nil))
		rt.appendWords(t, []trace.Word{cur})
	}
}

func (rt *ManagedRuntime) onThreadStart(t *MThread) {
	rt.appendWords(t, trace.AppendThreadStart(nil, uint32(t.TID), rt.now()))
}

func (rt *ManagedRuntime) onThreadEnd(t *MThread) {
	rt.appendWords(t, trace.AppendThreadEnd(nil, uint32(t.TID), rt.now()))
}

// onException records a first-chance managed exception with its
// managed code address; line-boundary probes make the report
// line-accurate (paper §2.4).
func (rt *ManagedRuntime) onException(t *MThread, code int, addr uint64) {
	rt.appendEvent(t, trace.AppendException(nil, trace.Exception{
		Code: uint16(code), Addr: addr, TS: rt.now(),
	}))
	if rt.cfg.SnapOnException {
		key := fmt.Sprintf("exc/%d/%d", code, addr)
		rt.suppress[key]++
		if rt.suppress[key] <= 1 {
			rt.takeSnap("exception "+ExcName(code), t, code, addr)
		}
	}
}

func (rt *ManagedRuntime) onUncaught(t *MThread, code int) {
	if rt.cfg.SnapOnUncaught {
		key := fmt.Sprintf("uncaught/%d", code)
		rt.suppress[key]++
		if rt.suppress[key] <= 1 {
			rt.takeSnap("exception uncaught "+ExcName(code), t, code, 0)
		}
	}
}

// TakeSnap snapshots the managed runtime's buffers.
func (rt *ManagedRuntime) TakeSnap(reason string) *snap.Snap {
	return rt.takeSnap(reason, nil, 0, 0)
}

func (rt *ManagedRuntime) takeSnap(reason string, t *MThread, code int, addr uint64) *snap.Snap {
	host := rt.v.Machine.Name
	proc := rt.v.Name
	s := &snap.Snap{
		Host:      host,
		Process:   proc,
		RuntimeID: rt.v.ID,
		Reason:    reason,
		Signal:    code,
		FaultAddr: addr,
		Time:      rt.now(),
	}
	if t != nil {
		s.TriggerTID = uint32(t.TID)
	}
	for _, lm := range rt.v.modules {
		mi := snap.ModuleInfo{
			Name:          lm.Mod.Name,
			Checksum:      lm.Mod.Checksum(),
			ActualDAGBase: lm.DAGBase,
			DAGCount:      lm.Mod.DAGCount,
			CodeBase:      lm.CodeBase,
			CodeLen:       lm.Mod.CodeLen(),
		}
		// Static fields dump (the managed object-dump analog).
		if len(lm.statics) > 0 {
			mi.DataDump = make([]byte, len(lm.statics)*8)
			for i, v := range lm.statics {
				binary.LittleEndian.PutUint64(mi.DataDump[i*8:], uint64(v))
			}
		}
		s.Modules = append(s.Modules, mi)
	}
	for tid := 1; tid <= rt.v.nextTID; tid++ {
		b := rt.bufs[tid]
		if b == nil || len(b.words) == 0 {
			continue
		}
		d := snap.BufferDump{
			Kind:      snap.BufMain,
			OwnerTID:  uint32(tid),
			LastPtr:   uint32(b.cur),
			LastKnown: true,
			SubWords:  0, // plain ring: the managed runtime always knows its pointer
		}
		d.SetWords(b.words)
		s.Buffers = append(s.Buffers, d)
	}
	s.Partners = rt.lt.Partners()
	rt.snaps = append(rt.snaps, s)
	return s
}

// JNI bridge (paper §3.3/§5.1): a native call from managed code is
// traced as an RPC between the managed and native runtimes, through
// the same trace.LogicalThreads protocol; writeSync stamps and writes
// one of its SYNC records.
func (rt *ManagedRuntime) writeSync(t *MThread, s trace.Sync) {
	s.TS = rt.now()
	rt.appendEvent(t, trace.AppendSync(nil, s))
}

// jniBridge is implemented by the native TraceBack runtime; when the
// process has no (or an uninstrumented) runtime attached, the bridge
// degrades gracefully and only the managed side is traced.
type jniBridge interface {
	BindJNI(t *vm.Thread, ext []byte)
	TakeJNIReply(tid int) []byte
}

// callNative executes a native function synchronously on behalf of a
// managed thread: a native thread is spawned in the associated
// process, the machine is pumped until it exits, and the result is
// pushed on the managed stack. SYNC records on both sides fuse the
// two physical threads into one logical thread, so reconstruction
// shows the Java-to-C control flow of Figure 5.
func (v *VM) callNative(t *MThread, f *mframe, nb NativeBinding) {
	if v.Proc == nil {
		v.throw(t, ExcNativeDied)
		return
	}
	args := make([]int64, nb.Arity)
	for i := nb.Arity - 1; i >= 0; i-- {
		args[i] = f.pop()
	}
	entry, ok := v.findNative(nb)
	if !ok {
		v.throw(t, ExcNativeDied)
		return
	}
	rec, ext, _ := v.rt.lt.Send(t.TID, false)
	v.rt.writeSync(t, rec)
	nt, err := v.Proc.StartThread(entry, 0)
	if err != nil {
		v.throw(t, ExcNativeDied)
		return
	}
	// Arguments go in the native argument registers.
	for i, a := range args {
		if i < 4 {
			nt.Regs[1+i] = uint64(a)
		}
	}
	bridge, haveBridge := v.Proc.Hooks.(jniBridge)
	if haveBridge {
		bridge.BindJNI(nt, ext)
	}

	// Pump the machine until the native thread finishes or the
	// process dies under us (the Figure 5 crash path).
	v.Machine.World.Run(10_000_000, func() bool {
		return nt.State == vm.Exited || v.Proc.Exited
	})
	if v.Proc.Exited {
		// The native side crashed; the managed runtime snaps so the
		// cross-language trace survives on both sides.
		v.rt.takeSnap("exception native process died", t, ExcNativeDied, v.codeAddr(f))
		v.throw(t, ExcNativeDied)
		return
	}
	if haveBridge {
		if rec, ok := v.rt.lt.Recv(t.TID, bridge.TakeJNIReply(nt.TID), true); ok {
			v.rt.writeSync(t, rec)
		}
	}
	f.push(int64(nt.ExitValue))
}

func (v *VM) findNative(nb NativeBinding) (uint64, bool) {
	for _, lm := range v.Proc.Modules {
		if lm.Unloaded {
			continue
		}
		if nb.Module != "" && lm.Mod.Name != nb.Module {
			continue
		}
		if fn, ok := lm.Mod.FuncByName(nb.Name); ok && fn.Exported {
			return uint64(lm.CodeBase + fn.Entry), true
		}
	}
	return 0, false
}
