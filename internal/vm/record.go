package vm

// Deterministic nondeterminism recording (the rr / iReplayer line).
// A Recorder is the read-only dual of the Injector: where the
// injector PERTURBS the VM's choice points, the recorder OBSERVES
// them, logging every decision that is not a pure function of the
// initial world state. The VM already routes all such decisions
// through a handful of sites — quantum scheduling, asynchronous
// signal delivery, abrupt kills, module unloads, and the RPC
// transport — so a log of those sites is sufficient to re-execute a
// run exactly (see internal/replay).
//
// With no recorder installed every site is a single nil check and the
// machine clock is untouched: recording-off runs — including the
// paper-table benchmarks — are cycle-identical to a build without
// this file (the Table 1 parity test in internal/replay proves it).

// Recorder observes the VM's nondeterminism sites. Implementations
// must not mutate VM state; they are called mid-step with the machine
// in a consistent state. internal/replay provides the standard
// implementation (and a replaying Driver that implements BOTH
// Injector and Recorder, re-firing a log while checking conformance).
type Recorder interface {
	// RecordQuantum fires once per scheduling quantum, after the next
	// thread t has been chosen and before it executes. The world
	// quantum counter (World.Quantum) has already been advanced for
	// this quantum.
	RecordQuantum(m *Machine, t *Thread)
	// RecordSignal fires when an asynchronous signal is delivered via
	// InjectSignal, after eligibility checks pass and before any state
	// changes. prePC is the victim's PC before delivery backs it up —
	// the instruction that had not yet executed.
	RecordSignal(m *Machine, t *Thread, sig int, prePC uint64)
	// RecordKill fires when a live process is killed abruptly
	// (KillProcess), before its threads are torn down.
	RecordKill(m *Machine, p *Process)
	// RecordUnload fires when a loaded module is unloaded.
	RecordUnload(p *Process, lm *LoadedModule)
	// RecordRPCFault fires for EVERY RPC transport consult — request
	// enqueue and reply copy — with the injector's verdict f (the zero
	// RPCFault when no injector is installed or it declined). Firing
	// unconditionally lets the recorder count message ordinals the
	// same way a replaying injector will.
	RecordRPCFault(from *Thread, endpoint uint64, reply bool, f RPCFault)
	// RecordRPCDeliver fires when a receiver dequeues a request:
	// the delivery order replay must reproduce.
	RecordRPCDeliver(to *Thread, endpoint uint64, from *Thread, payloadLen int)
}

// SetRecorder installs (or, with nil, removes) the world's
// nondeterminism recorder.
func (w *World) SetRecorder(r Recorder) { w.recorder = r }

// Quantum returns the world-global scheduling quantum counter: the
// number of Machine.Step calls across all machines since the world
// was created. It is the alignment backbone of record-and-replay —
// a recorded event stamped with quantum Q re-fires when a replay's
// counter reaches Q.
func (w *World) Quantum() uint64 { return w.quantum }

// MachineIndex returns m's index in the world's machine list (-1 if
// absent). Machine order is creation order and thus deterministic.
func (w *World) MachineIndex(m *Machine) int {
	for i, x := range w.Machines {
		if x == m {
			return i
		}
	}
	return -1
}
