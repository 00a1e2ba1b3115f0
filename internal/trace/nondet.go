// Nondeterminism records: the record-and-replay extension of the
// trace format (the rr / iReplayer line of PAPERS.md). The VM owns
// every source of nondeterminism — scheduling quanta, asynchronous
// signal delivery, abrupt kills, module unloads, and RPC transport —
// so a faulted execution is exactly reproducible from a log of those
// decisions. This file defines that log's record family and its
// wire encoding; internal/vm emits the records through a Recorder
// hook and internal/replay re-executes from them.
//
// Unlike the Figure 1 trace words (mined backward out of wrapped
// ring buffers), the nondeterminism log is an append-only stream
// decoded forward: a magic/version word followed by fixed-size
// records, each a header word (kind + payload length) and a fixed
// payload. The uniform layout trades a few words per record for a
// decoder with no per-kind framing ambiguity — torn or corrupt input
// is an error, never a misparse.
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
	// victim managed thread, Sig the exception code.
	NDManaged NondetKind = 7

	maxNondetKind = 7
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

// NondetMagic is the stream header word: "ND" + format version 1.
// Bump the low byte when the record layout changes; decoders reject
// unknown versions instead of guessing.
const NondetMagic Word = 0x4E440001

// NondetRecord is one decoded nondeterminism record. Fields not
// meaningful for a kind are zero (and must be zero for records to
// compare equal between a recording and its replay).
type NondetRecord struct {
	Kind     NondetKind
	Quantum  uint64 // world-global scheduling quantum (managed quanta for NDManaged)
	Machine  uint16 // machine index in the world
	PID      uint32
	TID      uint32
	PID2     uint32 // sender process (NDRPCDeliver)
	TID2     uint32 // sender thread (NDRPCDeliver)
	Sig      int32  // signal number / managed exception code
	PC       uint64 // pre-delivery PC (NDSignal)
	Clock    uint64 // machine clock at the event
	Endpoint uint64
	Index    uint32 // RPC ordinal (NDRPCFault) or module handle (NDUnload)
	Flags    uint32 // NDF* bits (NDRPCFault)
	Delay    uint64 // injected delay cycles (NDRPCFault)
	Len      uint32 // payload length (NDRPCDeliver)
}

// nondetPayloadWords is the fixed per-record payload size.
const nondetPayloadWords = 19

func nondetHeader(k NondetKind) Word {
	return Word(k)<<24 | nondetPayloadWords
}

// AppendNondet appends r's encoding to buf.
func AppendNondet(buf []Word, r NondetRecord) []Word {
	qlo, qhi := SplitU64(r.Quantum)
	pclo, pchi := SplitU64(r.PC)
	clo, chi := SplitU64(r.Clock)
	elo, ehi := SplitU64(r.Endpoint)
	dlo, dhi := SplitU64(r.Delay)
	return append(buf,
		nondetHeader(r.Kind),
		qlo, qhi,
		Word(r.Machine),
		Word(r.PID), Word(r.TID),
		Word(r.PID2), Word(r.TID2),
		Word(uint32(r.Sig)),
		pclo, pchi,
		clo, chi,
		elo, ehi,
		Word(r.Index), Word(r.Flags),
		dlo, dhi,
		Word(r.Len),
	)
}

// EncodeNondet encodes a whole log: magic word then every record.
func EncodeNondet(recs []NondetRecord) []Word {
	out := make([]Word, 0, 1+len(recs)*(nondetPayloadWords+1))
	out = append(out, NondetMagic)
	for _, r := range recs {
		out = AppendNondet(out, r)
	}
	return out
}

// DecodeNondet decodes a nondeterminism log. Any malformed input —
// wrong magic, unknown kind, bad length, torn record — is an error:
// a replay must never run from a log it cannot fully account for.
func DecodeNondet(words []Word) ([]NondetRecord, error) {
	if len(words) == 0 {
		return nil, fmt.Errorf("trace: nondet: empty stream")
	}
	if words[0] != NondetMagic {
		return nil, fmt.Errorf("trace: nondet: bad magic %#x (want %#x)", words[0], NondetMagic)
	}
	var out []NondetRecord
	i := 1
	for i < len(words) {
		h := words[i]
		kind := NondetKind(h >> 24)
		plen := int(h & 0xFFFFFF)
		if kind == 0 || kind > maxNondetKind {
			return nil, fmt.Errorf("trace: nondet: record %d: unknown kind %d", len(out), uint8(kind))
		}
		if plen != nondetPayloadWords {
			return nil, fmt.Errorf("trace: nondet: record %d: payload length %d (want %d)", len(out), plen, nondetPayloadWords)
		}
		if i+1+plen > len(words) {
			return nil, fmt.Errorf("trace: nondet: record %d: torn (%d of %d payload words)", len(out), len(words)-i-1, plen)
		}
		p := words[i+1 : i+1+plen]
		out = append(out, NondetRecord{
			Kind:     kind,
			Quantum:  JoinU64(p[0], p[1]),
			Machine:  uint16(p[2]),
			PID:      uint32(p[3]),
			TID:      uint32(p[4]),
			PID2:     uint32(p[5]),
			TID2:     uint32(p[6]),
			Sig:      int32(p[7]),
			PC:       JoinU64(p[8], p[9]),
			Clock:    JoinU64(p[10], p[11]),
			Endpoint: JoinU64(p[12], p[13]),
			Index:    uint32(p[14]),
			Flags:    uint32(p[15]),
			Delay:    JoinU64(p[16], p[17]),
			Len:      uint32(p[18]),
		})
		i += 1 + plen
	}
	return out, nil
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
