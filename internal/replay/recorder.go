package replay

import (
	"traceback/internal/snap"
	"traceback/internal/trace"
	"traceback/internal/vm"
)

// Recorder is the standard vm.Recorder: it appends one NondetRecord
// per observed decision, stamping each with the world-global quantum
// counter (the alignment backbone replay fires against). It also
// serves the managed runtime, whose quanta are counted by the mvm
// Run loop rather than vm.Machine.Step.
//
// The replaying Driver embeds a Recorder and re-uses exactly this
// observation logic, which is what makes record and replay agree on
// field-for-field record contents by construction. The zero value
// is ready to record.
type Recorder struct {
	events []trace.NondetRecord
	quanta uint64 // RecordQuantum calls (native path)
	mq     uint64 // ManagedQuantum calls (managed path)
	reqs   uint32 // RPC request-side consults
	reps   uint32 // RPC reply-side consults
}

// Log packages the recording with its provenance as the snap
// section.
func (r *Recorder) Log(scenario string, wrap, trial bool) *snap.NondetLog {
	return &snap.NondetLog{
		V:        logVersion,
		Scenario: scenario,
		Wrap:     wrap,
		Trial:    trial,
		Events:   r.events,
	}
}

func machIdx(m *vm.Machine) uint16 {
	if m.World == nil {
		return 0
	}
	if i := m.World.MachineIndex(m); i >= 0 {
		return uint16(i)
	}
	return 0
}

// RecordQuantum implements vm.Recorder: every DefaultInterval-th
// chosen quantum becomes an NDQuantum checkpoint.
func (r *Recorder) RecordQuantum(m *vm.Machine, t *vm.Thread) {
	r.quanta++
	if (r.quanta-1)%DefaultInterval != 0 {
		return
	}
	r.events = append(r.events, trace.NondetRecord{
		Kind:    trace.NDQuantum,
		Quantum: m.World.Quantum(),
		Machine: machIdx(m),
		PID:     uint32(t.Proc.PID),
		TID:     uint32(t.TID),
		Clock:   m.Clock(),
	})
}

// RecordSignal implements vm.Recorder.
func (r *Recorder) RecordSignal(m *vm.Machine, t *vm.Thread, sig int, prePC uint64) {
	r.events = append(r.events, trace.NondetRecord{
		Kind:    trace.NDSignal,
		Quantum: m.World.Quantum(),
		Machine: machIdx(m),
		PID:     uint32(t.Proc.PID),
		TID:     uint32(t.TID),
		Sig:     int32(sig),
		PC:      prePC,
		Clock:   m.Clock(),
	})
}

// RecordKill implements vm.Recorder.
func (r *Recorder) RecordKill(m *vm.Machine, p *vm.Process) {
	r.events = append(r.events, trace.NondetRecord{
		Kind:    trace.NDKill,
		Quantum: m.World.Quantum(),
		Machine: machIdx(m),
		PID:     uint32(p.PID),
		Clock:   m.Clock(),
	})
}

// RecordUnload implements vm.Recorder; Index carries the module
// handle, which is stable across a deterministic rebuild.
func (r *Recorder) RecordUnload(p *vm.Process, lm *vm.LoadedModule) {
	m := p.Machine
	r.events = append(r.events, trace.NondetRecord{
		Kind:    trace.NDUnload,
		Quantum: m.World.Quantum(),
		Machine: machIdx(m),
		PID:     uint32(p.PID),
		Index:   uint32(lm.Handle),
		Clock:   m.Clock(),
	})
}

// RecordRPCFault implements vm.Recorder. Every consult advances the
// side's ordinal — that is how a replaying injector addresses the
// same message — but only non-zero verdicts are logged.
func (r *Recorder) RecordRPCFault(from *vm.Thread, endpoint uint64, reply bool, f vm.RPCFault) {
	var idx uint32
	var flags uint32
	if reply {
		r.reps++
		idx = r.reps
		flags |= trace.NDFReply
	} else {
		r.reqs++
		idx = r.reqs
	}
	if !f.Drop && f.Delay == 0 && !f.Duplicate {
		return
	}
	if f.Drop {
		flags |= trace.NDFDrop
	}
	if f.Duplicate {
		flags |= trace.NDFDup
	}
	m := from.Proc.Machine
	r.events = append(r.events, trace.NondetRecord{
		Kind:     trace.NDRPCFault,
		Quantum:  m.World.Quantum(),
		Machine:  machIdx(m),
		PID:      uint32(from.Proc.PID),
		TID:      uint32(from.TID),
		Endpoint: endpoint,
		Index:    idx,
		Flags:    flags,
		Delay:    f.Delay,
	})
}

// RecordRPCDeliver implements vm.Recorder.
func (r *Recorder) RecordRPCDeliver(to *vm.Thread, endpoint uint64, from *vm.Thread, payloadLen int) {
	m := to.Proc.Machine
	r.events = append(r.events, trace.NondetRecord{
		Kind:     trace.NDRPCDeliver,
		Quantum:  m.World.Quantum(),
		Machine:  machIdx(m),
		PID:      uint32(to.Proc.PID),
		TID:      uint32(to.TID),
		PID2:     uint32(from.Proc.PID),
		TID2:     uint32(from.TID),
		Endpoint: endpoint,
		Len:      uint32(payloadLen),
		Clock:    m.Clock(),
	})
}

// ManagedQuantum is the managed-runtime analog of RecordQuantum: call
// it from mvm's OnQuantum with the managed quantum count q.
func (r *Recorder) ManagedQuantum(q uint64, m *vm.Machine) {
	r.mq++
	if (r.mq-1)%DefaultInterval != 0 {
		return
	}
	r.events = append(r.events, trace.NondetRecord{
		Kind:    trace.NDQuantum,
		Quantum: q,
		Clock:   m.Clock(),
	})
}

// ManagedInterrupt records an asynchronous managed interrupt
// (mvm.VM.Interrupt) fired at managed quantum q.
func (r *Recorder) ManagedInterrupt(q uint64, tid, code int) {
	r.events = append(r.events, trace.NondetRecord{
		Kind:    trace.NDManaged,
		Quantum: q,
		TID:     uint32(tid),
		Sig:     int32(code),
	})
}

var _ vm.Recorder = (*Recorder)(nil)
