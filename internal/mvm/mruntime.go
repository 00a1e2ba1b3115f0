package mvm

import (
	"encoding/binary"
	"fmt"

	"traceback/internal/snap"
	"traceback/internal/tbrt"
	"traceback/internal/trace"
	"traceback/internal/vm"
)

// RuntimeConfig sets the managed trace runtime's policy and cycle
// model.
type RuntimeConfig struct {
	// SnapOnUncaught snaps when an exception kills a thread.
	SnapOnUncaught bool
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
	if c.ProbeHCost == 0 {
		c.ProbeHCost = 6
	}
	if c.ProbeLCost == 0 {
		c.ProbeLCost = 2
	}
	return c
}

// managedBuffers is the managed buffer set's geometry: eight 32 KiB
// main buffers of four sub-buffers each. No world runs more than six
// managed threads at once, so the pool never falls back on the
// desperation buffer.
var managedBuffers = tbrt.Geometry{Words: 8192, Buffers: 8, Subs: 4}

// ManagedRuntime is the managed-side TraceBack runtime: its own runtime
// ID, DAG range and trace buffer set, distinct from the native
// runtime's even when both share one process (paper §3.3 treats
// Java+native as distributed tracing within one process). The buffer
// set lives in the VM's process memory and runs on tbrt's buffer
// code; a managed thread's cursor is its cur field.
type ManagedRuntime struct {
	v   *VM
	cfg RuntimeConfig

	heap heap

	buffers *tbrt.BufferSet
	nextDAG uint32
	lt      *trace.LogicalThreads

	suppress map[string]int
	snaps    []*snap.Snap
}

// Snaps returns snaps taken by the managed runtime.
func (rt *ManagedRuntime) Snaps() []*snap.Snap { return rt.snaps }

// assignRange allocates a DAG ID range for an instrumented module.
func (rt *ManagedRuntime) assignRange(m *Module) uint32 {
	base := rt.nextDAG
	rt.nextDAG += m.DAGCount
	return base
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
	rt.buffers.Append(t.TID, &t.cur, []trace.Word{trace.DAGWord(id, 0)})
}

func (rt *ManagedRuntime) now() uint64 { return rt.v.Machine.Timestamp() }

// onThreadEnd writes the ThreadEnd record and returns the thread's
// buffer to the pool.
func (rt *ManagedRuntime) onThreadEnd(t *MThread) { rt.buffers.Release(t.TID, &t.cur) }

// onUncaught snaps under policy the thread an exception killed, then
// ends it like any other thread.
func (rt *ManagedRuntime) onUncaught(t *MThread, code int) {
	if rt.cfg.SnapOnUncaught {
		key := fmt.Sprintf("uncaught/%d", code)
		rt.suppress[key]++
		if rt.suppress[key] <= 1 {
			rt.takeSnap("exception uncaught "+ExcName(code), t, code)
		}
	}
	rt.onThreadEnd(t)
}

// TakeSnap snapshots the managed runtime's buffers.
func (rt *ManagedRuntime) TakeSnap(reason string) *snap.Snap {
	return rt.takeSnap(reason, nil, 0)
}

func (rt *ManagedRuntime) takeSnap(reason string, t *MThread, code int) *snap.Snap {
	host := rt.v.Machine.Name
	proc := rt.v.Name
	s := &snap.Snap{
		Host:      host,
		Process:   proc,
		RuntimeID: rt.v.ID,
		Reason:    reason,
		Signal:    code,
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
	s.Buffers, _ = rt.buffers.Dump()
	rt.snaps = append(rt.snaps, s)
	return s
}

// JNI bridge (paper §3.3/§5.1): a native call from managed code is
// traced as an RPC between the managed and native runtimes, through
// the same trace.LogicalThreads protocol; writeSync stamps and writes
// one of its SYNC records.
func (rt *ManagedRuntime) writeSync(t *MThread, s trace.Sync) {
	s.TS = rt.now()
	rt.buffers.AppendEvent(t.TID, &t.cur, trace.AppendSync(nil, s))
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
		v.rt.takeSnap("exception native process died", t, ExcNativeDied)
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
