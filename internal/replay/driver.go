package replay

import (
	"encoding/json"
	"fmt"
	"sort"

	"traceback/internal/mvm"
	"traceback/internal/snap"
	"traceback/internal/trace"
	"traceback/internal/vm"
)

// Divergence is the first point where a replay stopped matching its
// log — a first-class, machine-readable error. Error() renders it as
// a single line with an embedded JSON object so harnesses can parse
// it out of any error chain.
type Divergence struct {
	// Seq is the event index in the log (or the snap index for
	// snap-mismatch / the harvest position for harvest-mismatch).
	Seq int `json:"seq"`
	// Quantum is the world quantum at detection (0 when not
	// applicable).
	Quantum uint64 `json:"quantum,omitempty"`
	// Kind classifies the mismatch: event-mismatch (an observed
	// decision differs from the recorded one), log-exhausted (the
	// replay observed more decisions than were recorded),
	// log-unconsumed (recorded decisions never happened),
	// fire-failed (a recorded perturbation could not be re-applied),
	// harvest-mismatch (snap counts differ), snap-mismatch (a
	// replayed snap is not byte-identical to the original).
	Kind string `json:"kind"`
	Want string `json:"want,omitempty"`
	Got  string `json:"got,omitempty"`
}

func (d *Divergence) Error() string {
	b, err := json.Marshal(d)
	if err != nil {
		return "replay: divergence: " + d.Kind
	}
	return "replay: divergence: " + string(b)
}

// Driver replays a log against a freshly built world. It implements
// BOTH sides of the VM's nondeterminism surface:
//
//   - as the vm.Injector it is the sole perturbation source,
//     re-firing the log's signals, kills, unloads, and RPC transport
//     verdicts when the world reaches their recorded quanta/ordinals;
//   - as the vm.Recorder (strict mode) it re-observes every decision
//     through the same Recorder logic the original run used and
//     compares the streams position by position. The driver's own
//     fires come back to it through the VM's recorder hooks, so even
//     the replayed perturbations are conformance-checked.
//
// The first mismatch latches a Divergence; after that the driver
// stops firing and observing (the run is allowed to wind down under
// its step budget) and Finish reports the latched state.
type Driver struct {
	log    *snap.NondetLog
	strict bool
	rec    *Recorder

	checked int // prefix of rec.events already compared
	fires   []trace.NondetRecord
	fireIdx int
	rpc     map[rpcKey]trace.NondetRecord
	reqs    uint32
	reps    uint32
	mq      uint64 // managed quanta seen
	div     *Divergence
}

type rpcKey struct {
	reply bool
	index uint32
}

// NewDriver builds a driver for l. strict enables conformance
// checking (replay verification); non-strict replays the log's
// perturbations without checking, which is what replay-under-
// perturbation wants (a mutated log is SUPPOSED to diverge).
func NewDriver(l *snap.NondetLog, strict bool) *Driver {
	d := &Driver{
		log:    l,
		strict: strict,
		rec:    &Recorder{},
		rpc:    map[rpcKey]trace.NondetRecord{},
	}
	for _, ev := range l.Events {
		switch ev.Kind {
		case trace.NDSignal, trace.NDKill, trace.NDUnload, trace.NDManaged:
			d.fires = append(d.fires, ev)
		case trace.NDRPCFault:
			d.rpc[rpcKey{ev.Flags&trace.NDFReply != 0, ev.Index}] = ev
		}
	}
	// Keep fires quantum-ordered even if a mutated log unsorted them.
	sort.SliceStable(d.fires, func(i, j int) bool { return d.fires[i].Quantum < d.fires[j].Quantum })
	return d
}

// Divergence returns the latched divergence (nil while conforming).
func (d *Driver) Divergence() *Divergence { return d.div }

func (d *Driver) setDiv(dv *Divergence) {
	if d.div == nil {
		d.div = dv
	}
}

// drain compares newly observed events against the log.
func (d *Driver) drain() {
	evs := d.rec.events
	for d.checked < len(evs) {
		got := evs[d.checked]
		if d.checked >= len(d.log.Events) {
			d.setDiv(&Divergence{Seq: d.checked, Quantum: got.Quantum, Kind: "log-exhausted", Got: got.String()})
			return
		}
		want := d.log.Events[d.checked]
		if got != want {
			d.setDiv(&Divergence{Seq: d.checked, Quantum: got.Quantum, Kind: "event-mismatch", Want: want.String(), Got: got.String()})
			return
		}
		d.checked++
	}
}

// Finish performs end-of-run accounting: a conforming replay must
// have consumed the whole log.
func (d *Driver) Finish() {
	if d.div != nil {
		return
	}
	if d.strict && d.checked < len(d.log.Events) {
		want := d.log.Events[d.checked]
		d.setDiv(&Divergence{Seq: d.checked, Quantum: want.Quantum, Kind: "log-unconsumed", Want: want.String()})
		return
	}
	if d.fireIdx < len(d.fires) {
		want := d.fires[d.fireIdx]
		d.setDiv(&Divergence{Seq: d.fireIdx, Quantum: want.Quantum, Kind: "log-unconsumed", Want: want.String()})
	}
}

// AtQuantum implements vm.Injector: re-fire every recorded
// perturbation whose quantum has been reached.
func (d *Driver) AtQuantum(m *vm.Machine) {
	if d.div != nil {
		return
	}
	w := m.World
	for d.fireIdx < len(d.fires) && d.fires[d.fireIdx].Kind != trace.NDManaged &&
		d.fires[d.fireIdx].Quantum <= w.Quantum() && d.div == nil {
		ev := d.fires[d.fireIdx]
		d.fireIdx++
		d.fire(w, ev)
	}
}

func (d *Driver) fire(w *vm.World, ev trace.NondetRecord) {
	fail := func(why string) {
		d.setDiv(&Divergence{Quantum: w.Quantum(), Kind: "fire-failed", Want: ev.String(), Got: why})
	}
	if int(ev.Machine) >= len(w.Machines) {
		fail(fmt.Sprintf("no machine %d", ev.Machine))
		return
	}
	m := w.Machines[ev.Machine]
	var p *vm.Process
	for _, pp := range m.Procs() {
		if pp.PID == int(ev.PID) {
			p = pp
			break
		}
	}
	if p == nil {
		fail(fmt.Sprintf("no pid %d on machine %d", ev.PID, ev.Machine))
		return
	}
	switch ev.Kind {
	case trace.NDKill:
		if p.Exited {
			fail("process already exited")
			return
		}
		m.KillProcess(p)
	case trace.NDSignal:
		t := p.Threads[int(ev.TID)]
		if t == nil {
			fail(fmt.Sprintf("no tid %d", ev.TID))
			return
		}
		if !m.InjectSignal(t, int(ev.Sig)) {
			fail("signal not deliverable")
		}
	case trace.NDUnload:
		for _, lm := range p.Modules {
			if lm.Handle == int(ev.Index) {
				if lm.Unloaded {
					fail("module already unloaded")
					return
				}
				p.Unload(lm)
				return
			}
		}
		fail(fmt.Sprintf("no module handle %d", ev.Index))
	}
}

// AtRPC implements vm.Injector: return the recorded transport verdict
// for this message ordinal (the zero fault when none was recorded).
func (d *Driver) AtRPC(from *vm.Thread, endpoint uint64, reply bool) vm.RPCFault {
	var idx uint32
	if reply {
		d.reps++
		idx = d.reps
	} else {
		d.reqs++
		idx = d.reqs
	}
	if d.div != nil {
		return vm.RPCFault{}
	}
	ev, ok := d.rpc[rpcKey{reply, idx}]
	if !ok {
		return vm.RPCFault{}
	}
	return vm.RPCFault{
		Drop:      ev.Flags&trace.NDFDrop != 0,
		Delay:     ev.Delay,
		Duplicate: ev.Flags&trace.NDFDup != 0,
	}
}

// The vm.Recorder side (strict mode only — Run installs it only
// then): delegate to the embedded Recorder, then compare.

func (d *Driver) RecordQuantum(m *vm.Machine, t *vm.Thread) {
	if d.div != nil {
		return
	}
	d.rec.RecordQuantum(m, t)
	d.drain()
}

func (d *Driver) RecordSignal(m *vm.Machine, t *vm.Thread, sig int, prePC uint64) {
	if d.div != nil {
		return
	}
	d.rec.RecordSignal(m, t, sig, prePC)
	d.drain()
}

func (d *Driver) RecordKill(m *vm.Machine, p *vm.Process) {
	if d.div != nil {
		return
	}
	d.rec.RecordKill(m, p)
	d.drain()
}

func (d *Driver) RecordUnload(p *vm.Process, lm *vm.LoadedModule) {
	if d.div != nil {
		return
	}
	d.rec.RecordUnload(p, lm)
	d.drain()
}

func (d *Driver) RecordRPCFault(from *vm.Thread, endpoint uint64, reply bool, f vm.RPCFault) {
	if d.div != nil {
		return
	}
	d.rec.RecordRPCFault(from, endpoint, reply, f)
	d.drain()
}

func (d *Driver) RecordRPCDeliver(to *vm.Thread, endpoint uint64, from *vm.Thread, payloadLen int) {
	if d.div != nil {
		return
	}
	d.rec.RecordRPCDeliver(to, endpoint, from, payloadLen)
	d.drain()
}

// ManagedOnQuantum is the managed-runtime replay hook: install as
// mvm's OnQuantum. It mirrors the recording side's quantum counting,
// checkpoints (strict mode), and re-fires recorded interrupts.
func (d *Driver) ManagedOnQuantum(v *mvm.VM) {
	d.mq++
	if d.strict && d.div == nil {
		d.rec.ManagedQuantum(d.mq, v.Machine)
		d.drain()
	}
	for d.fireIdx < len(d.fires) && d.fires[d.fireIdx].Quantum <= d.mq && d.div == nil {
		ev := d.fires[d.fireIdx]
		d.fireIdx++
		if ev.Kind != trace.NDManaged {
			d.setDiv(&Divergence{Quantum: d.mq, Kind: "fire-failed", Want: ev.String(), Got: "native event in managed replay"})
			return
		}
		v.Interrupt(int(ev.TID), int(ev.Sig))
		if d.strict {
			d.rec.ManagedInterrupt(d.mq, int(ev.TID), int(ev.Sig))
			d.drain()
		}
	}
}

var (
	_ vm.Injector = (*Driver)(nil)
	_ vm.Recorder = (*Driver)(nil)
)
