package verify

import (
	"strconv"

	"traceback/internal/cfg"
	"traceback/internal/isa"
)

// syncProtocol checks the callee half of the four-SYNC record
// sequence (paper §5.1). The VM emits SyncCallSend/SyncReplyRecv in
// the caller's buffer at the SysRPCCall itself, and SyncCallRecv at
// the SysRPCRecv — those cannot be skipped. SyncReplySend, though, is
// emitted only when the server code actually executes SysRPCReply, so
// the statically checkable property is: every path from an rpc-recv
// reaches an rpc-reply before the function returns, the process
// exits, or another rpc-recv overwrites the thread's pending request.
// A path that escapes leaves the caller's exchange with three SYNCs —
// reconstruction cannot stitch the cross-runtime reply edge and the
// caller side of the snap dangles.
//
// Calls to functions proven to always reply (reply on every path
// before any recv of their own — their reply answers the caller's
// pending request) count as replies; the proof is a fixpoint over the
// whole set, following CALX imports across modules.
//
// The dominator tree adds a precision warning in the other direction:
// in a function that receives, a reply no recv dominates can execute
// with no pending request on some path.
func (set *moduleSet) syncProtocol() {
	set.solveRepliers()

	for _, m := range set.mods {
		for _, s := range m.recvs {
			v, _ := set.walkFrom(m, s.fn, s.block, s.instr+1)
			if v != nil {
				m.errorf(PassSync, -1, int(s.instr),
					"a path from this rpc-recv %s without an intervening rpc-reply: the SyncReplySend record is never emitted and the caller's RPC exchange cannot be stitched", v.desc)
			}
		}
		for _, s := range m.replies {
			if !hasRecv(m, s.fn) {
				// Reply-only helpers are replied *through* (see the
				// repliers fixpoint); the binding recv lives in a caller.
				continue
			}
			if !replyDominated(m, s) {
				m.warnf(PassSync, -1, int(s.instr),
					"rpc-reply is not dominated by any rpc-recv: on some path it executes with no pending request to answer")
			}
		}
	}
}

func hasRecv(m *context, f *fnInfo) bool {
	for _, r := range m.recvs {
		if r.fn == f {
			return true
		}
	}
	return false
}

// replyDominated reports whether some recv in the same function
// dominates the reply site s (same-block sites compare by index).
func replyDominated(m *context, s rpcSite) bool {
	for _, r := range m.recvs {
		if r.fn != s.fn {
			continue
		}
		if r.block == s.block {
			if r.instr < s.instr {
				return true
			}
			continue
		}
		if s.fn.dom.Dominates(r.block, s.block) {
			return true
		}
	}
	return false
}

// solveRepliers computes the always-replies set: functions where
// every path from entry reaches a reply before any recv or exit, and
// at least one reply is reachable. Iterates to fixpoint so chains of
// helpers (and cross-module CALX wrappers) resolve.
func (set *moduleSet) solveRepliers() {
	set.repliers = map[*fnInfo]bool{}
	for changed := true; changed; {
		changed = false
		for _, m := range set.mods {
			for _, f := range m.funcs {
				if set.repliers[f] {
					continue
				}
				v, sawReply := set.walkFrom(m, f, f.g.Entry, f.fn.Entry)
				if v == nil && sawReply {
					set.repliers[f] = true
					changed = true
				}
			}
		}
	}
}

// violation describes how a path escaped the recv→reply obligation.
type violation struct{ desc string }

// walkFrom explores every path of f (in module m) from instruction
// startIdx inside block startBlock, looking for an escape: a path
// that reaches another rpc-recv, a return, a process exit, or a halt
// before an rpc-reply. It returns the first violation in BFS order
// (deterministic) and whether any path reached a reply.
func (set *moduleSet) walkFrom(m *context, f *fnInfo, startBlock int, startIdx uint32) (*violation, bool) {
	sawReply := false
	visited := make([]bool, len(f.g.Blocks))
	type item struct {
		block int
		from  uint32
	}
	queue := []item{{startBlock, startIdx}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		b := f.g.Blocks[it.block]
		outcome, at := set.blockOutcome(m, f, b, it.from)
		switch outcome {
		case outcomeReply:
			sawReply = true
			continue
		case outcomeRecv:
			return &violation{desc: "reaches another rpc-recv (instr " + strconv.FormatUint(uint64(at), 10) + ")"}, sawReply
		}
		if len(b.Succs) == 0 {
			return &violation{desc: escapeDesc(f, b)}, sawReply
		}
		for _, s := range b.Succs {
			if !visited[s] {
				visited[s] = true
				queue = append(queue, item{s, f.g.Blocks[s].Start})
			}
		}
	}
	return nil, sawReply
}

func escapeDesc(f *fnInfo, b *cfg.Block) string {
	last := f.g.Code[b.End-1]
	switch {
	case last.Op == isa.RET:
		return "returns from the function"
	case last.NoReturn():
		return "exits the process"
	case last.Op == isa.HLT:
		return "halts"
	}
	return "leaves the function"
}

type outcome uint8

const (
	outcomeNeutral outcome = iota
	outcomeReply
	outcomeRecv
)

// blockOutcome scans block b from instruction index from for the
// first protocol event: an rpc-reply (or a block-terminating call to
// a proven always-replier, possibly in another module) closes the
// obligation; an rpc-recv re-opens it. Anything else is neutral and
// the walk continues through the successors.
func (set *moduleSet) blockOutcome(m *context, f *fnInfo, b *cfg.Block, from uint32) (outcome, uint32) {
	if from < b.Start {
		from = b.Start
	}
	for idx := from; idx < b.End; idx++ {
		in := f.g.Code[idx]
		if in.Op != isa.SYS {
			continue
		}
		switch int(in.Imm) {
		case isa.SysRPCReply:
			return outcomeReply, idx
		case isa.SysRPCRecv:
			return outcomeRecv, idx
		}
	}
	if b.EndsInCall && from < b.End {
		if callee := set.resolveCall(m, b); callee != nil && set.repliers[callee] {
			return outcomeReply, b.End - 1
		}
	}
	return outcomeNeutral, 0
}
