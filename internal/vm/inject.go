package vm

// Deterministic fault injection (the Box-of-Pain co-evolution story:
// tracing and fault injection drive each other). The VM already owns
// every source of nondeterminism — scheduling quanta, signal
// delivery, RPC transport — so faults are injected at exactly those
// points, parameterized by a seed instead of wall-clock chaos. An
// installed Injector is consulted:
//
//   - at the top of every scheduling quantum (Machine.Step), the
//     preemption point where kills, asynchronous signals, and module
//     unloads land;
//   - at every RPC enqueue (request side) and reply copy (reply
//     side), where the transport may drop, delay, or duplicate.
//
// With no injector installed every consult is a single nil check, so
// normal runs — including the paper-table benchmarks — are untouched.

// RPCFault describes one message's transport perturbation.
type RPCFault struct {
	// Drop discards the message: the caller stays blocked forever
	// (request side) or never sees its reply (reply side) — the hang
	// shapes the service heartbeat exists for.
	Drop bool
	// Delay adds receiver-clock cycles before the message becomes
	// visible (request side only; replies are copied synchronously).
	// Delaying one message past a later one reorders them: rpcRecv
	// delivers whichever queued message is due first.
	Delay uint64
	// Duplicate enqueues a second identical delivery (request side
	// only) — the at-least-once transport failure mode.
	Duplicate bool
}

// Injector observes the VM's deterministic choice points and may
// perturb them. Implementations must be deterministic functions of
// their own state and the observable VM state; the campaign
// orchestrator derives them from a seed.
type Injector interface {
	// AtQuantum fires at the top of every scheduling quantum on m,
	// before the next thread is picked. It may kill processes
	// (Machine.KillProcess), deliver signals (Machine.InjectSignal),
	// or unload modules (Process.Unload).
	AtQuantum(m *Machine)
	// AtRPC fires for every RPC message: on the request side when the
	// caller enqueues (reply=false), on the reply side before the
	// response is copied back (reply=true).
	AtRPC(from *Thread, endpoint uint64, reply bool) RPCFault
}

// SetInjector installs (or, with nil, removes) the world's fault
// injector.
func (w *World) SetInjector(inj Injector) { w.injector = inj }

// InjectSignal delivers sig to t asynchronously, as if raised at a
// preemption point: the thread's current instruction has not executed
// yet, so delivery is attributed to the previously executed
// instruction and — if a handler runs — control resumes exactly where
// it was interrupted, re-executing nothing and skipping nothing.
// Only runnable or sleeping threads of live processes are eligible
// (a blocked syscall is not interruptible in this VM); sleepers are
// woken to die or to handle. Reports whether the signal was
// delivered.
func (m *Machine) InjectSignal(t *Thread, sig int) bool {
	p := t.Proc
	if p.Exited || t.State == Exited || t.PC == 0 {
		return false
	}
	if t.State != Runnable && t.State != Sleeping {
		return false
	}
	if t.State == Sleeping {
		t.State = Runnable
	}
	// Delivery is now certain; record it with the pre-delivery PC
	// (backed up below) so a replay can re-inject at the same point.
	if w := m.World; w != nil && w.recorder != nil {
		w.recorder.RecordSignal(m, t, sig, t.PC)
	}
	// fault() records the faulting address as t.PC and resumes
	// handlers at t.PC+1 (synchronous semantics: re-execute nothing
	// past the faulting instruction). For asynchronous delivery the
	// current PC has NOT executed, so back up one: the recorded
	// address is the last executed instruction and the handler
	// resumes at the original PC.
	t.PC--
	m.fault(t, sig)
	return true
}
