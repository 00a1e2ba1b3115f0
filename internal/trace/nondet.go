// Nondeterminism records: the record-and-replay extension of the
// trace (the rr / iReplayer line of PAPERS.md). The VM owns every
// source of nondeterminism — scheduling quanta, asynchronous signal
// delivery, abrupt kills, module unloads, and RPC transport — so a
// faulted execution is exactly reproducible from a log of those
// decisions. This file defines that log's record family;
// internal/vm emits the records through a Recorder hook, the snap
// stores them as JSON beside the trace buffers, and internal/replay
// re-executes from them.
package trace

import "fmt"

// NondetKind identifies one nondeterminism record type.
type NondetKind uint8

// Nondeterminism record kinds.
const (
	// NDQuantum is a periodic scheduling checkpoint: the world-global
	// quantum sequence number plus the machine, clock, and chosen
	// thread at that quantum. Replay compares checkpoints to detect
	// divergence early instead of only at the final snap.
	NDQuantum NondetKind = 1
	// NDSignal is an asynchronous signal delivery: victim thread,
	// signal number, and the pre-delivery PC (the instruction that
	// had NOT yet executed when the signal landed).
	NDSignal NondetKind = 2
	// NDKill is an abrupt process termination (kill -9).
	NDKill NondetKind = 3
	// NDUnload is a module unload; Index carries the process-local
	// module handle.
	NDUnload NondetKind = 4
	// NDRPCFault is a transport perturbation applied to one message:
	// Index is the 1-based request (or reply) ordinal on the world's
	// transport, Flags the drop/dup/reply bits, Delay the added
	// receiver-clock cycles.
	NDRPCFault NondetKind = 5
	// NDRPCDeliver is one request payload dequeued by a receiver:
	// the delivery order the replay must reproduce. PID2/TID2 name
	// the sender, Len the payload length.
	NDRPCDeliver NondetKind = 6
	// NDManaged is an asynchronous interrupt in the managed (mvm)
	// runtime: Quantum counts managed scheduling quanta, TID the
	// victim managed thread, Sig the exception code. It is the last
	// kind: replay refuses a recording that holds any other.
	NDManaged NondetKind = 7
)

func (k NondetKind) String() string {
	switch k {
	case NDQuantum:
		return "quantum"
	case NDSignal:
		return "signal"
	case NDKill:
		return "kill"
	case NDUnload:
		return "unload"
	case NDRPCFault:
		return "rpc-fault"
	case NDRPCDeliver:
		return "rpc-deliver"
	case NDManaged:
		return "managed-interrupt"
	}
	return fmt.Sprintf("nondet(%d)", uint8(k))
}

// NDRPCFault flag bits.
const (
	NDFReply = 1 << 0 // the fault applied to a reply, not a request
	NDFDrop  = 1 << 1
	NDFDup   = 1 << 2
)

// NondetRecord is one nondeterminism record. Fields not meaningful
// for a kind are zero (and must be zero for records to compare equal
// between a recording and its replay); JSON omits them.
type NondetRecord struct {
	Kind     NondetKind `json:"kind"`
	Quantum  uint64     `json:"quantum,omitempty"` // world-global scheduling quantum (managed quanta for NDManaged)
	Machine  uint16     `json:"machine,omitempty"` // machine index in the world
	PID      uint32     `json:"pid,omitempty"`
	TID      uint32     `json:"tid,omitempty"`
	PID2     uint32     `json:"pid2,omitempty"`  // sender process (NDRPCDeliver)
	TID2     uint32     `json:"tid2,omitempty"`  // sender thread (NDRPCDeliver)
	Sig      int32      `json:"sig,omitempty"`   // signal number / managed exception code
	PC       uint64     `json:"pc,omitempty"`    // pre-delivery PC (NDSignal)
	Clock    uint64     `json:"clock,omitempty"` // machine clock at the event
	Endpoint uint64     `json:"endpoint,omitempty"`
	Index    uint32     `json:"index,omitempty"` // RPC ordinal (NDRPCFault) or module handle (NDUnload)
	Flags    uint32     `json:"flags,omitempty"` // NDF* bits (NDRPCFault)
	Delay    uint64     `json:"delay,omitempty"` // injected delay cycles (NDRPCFault)
	Len      uint32     `json:"len,omitempty"`   // payload length (NDRPCDeliver)
}

// String renders the record human-readably (tbdump -nondet).
func (r NondetRecord) String() string {
	switch r.Kind {
	case NDQuantum:
		return fmt.Sprintf("q=%-8d ckpt     m%d pid=%d tid=%d clk=%d", r.Quantum, r.Machine, r.PID, r.TID, r.Clock)
	case NDSignal:
		return fmt.Sprintf("q=%-8d signal   sig=%d -> m%d pid=%d tid=%d pc=%d clk=%d", r.Quantum, r.Sig, r.Machine, r.PID, r.TID, r.PC, r.Clock)
	case NDKill:
		return fmt.Sprintf("q=%-8d kill -9  m%d pid=%d clk=%d", r.Quantum, r.Machine, r.PID, r.Clock)
	case NDUnload:
		return fmt.Sprintf("q=%-8d unload   m%d pid=%d handle=%d clk=%d", r.Quantum, r.Machine, r.PID, r.Index, r.Clock)
	case NDRPCFault:
		side, n := "req", r.Index
		if r.Flags&NDFReply != 0 {
			side = "rep"
		}
		extra := ""
		if r.Flags&NDFDrop != 0 {
			extra += " drop"
		}
		if r.Flags&NDFDup != 0 {
			extra += " dup"
		}
		if r.Delay != 0 {
			extra += fmt.Sprintf(" delay+%d", r.Delay)
		}
		return fmt.Sprintf("q=%-8d rpc-fault %s#%d ep=%d from pid=%d tid=%d%s", r.Quantum, side, n, r.Endpoint, r.PID, r.TID, extra)
	case NDRPCDeliver:
		return fmt.Sprintf("q=%-8d rpc-recv ep=%d pid=%d tid=%d <- pid=%d tid=%d len=%d clk=%d",
			r.Quantum, r.Endpoint, r.PID, r.TID, r.PID2, r.TID2, r.Len, r.Clock)
	case NDManaged:
		return fmt.Sprintf("q=%-8d managed-interrupt exc=%d -> tid=%d", r.Quantum, r.Sig, r.TID)
	}
	return fmt.Sprintf("q=%-8d %s", r.Quantum, r.Kind)
}
