package vm

import (
	"encoding/binary"

	"traceback/internal/isa"
)

// RPC transport. Endpoints are world-global integer IDs. Requests and
// replies carry an application payload plus an opaque trace extension
// the runtime hooks attach and consume — the mechanism the paper's
// §5.1 uses to stitch physical threads into logical threads.
//
// Wire format written into the callee/caller buffers:
//
//	[4 bytes app payload length][app payload]
//
// The extension travels out of band (as COM payload extensions do)
// and is handed to the peer runtime's OnRPCRecv.

// RegisterEndpoint binds an endpoint ID to a serving process. Threads
// of that process receive requests with SysRPCRecv.
func (w *World) RegisterEndpoint(id uint64, p *Process) {
	w.endpoints[id] = &endpoint{proc: p}
}

// rpcCall implements SysRPCCall: r1=endpoint, r2=req addr, r3=req
// len, r4=resp addr (capacity prefix convention: first 4 bytes at
// resp addr give the caller's buffer capacity). The calling thread
// blocks until the reply arrives. r0 = reply status (the callee's r2
// at reply time; nonzero means a server-side fault was converted to
// an error, the DCOM RPC_E_SERVERFAULT analog).
func (m *Machine) rpcCall(t *Thread) (stepResult, int) {
	p := t.Proc
	r := &t.Regs
	ep := m.World.endpoints[r[isa.A1]]
	if ep == nil {
		r[isa.RV] = ^uint64(0)
		return stepOK, 0
	}
	payload, ok := p.ReadBytes(r[isa.A2], r[isa.A3])
	if !ok {
		return stepFault, SigSegv
	}
	ext := p.Hooks.OnRPCSend(t, false)
	// deliverAt is on the RECEIVER's clock so its recv loop can
	// compare locally; cross-machine calls pay latency and send cost.
	deliverAt := ep.proc.Machine.clock
	if ep.proc.Machine != m {
		deliverAt += CrossMachineLatency
		m.clock += CostNetBase + uint64(len(payload))*CostNetPerKB/1024
	}
	msg := &rpcMessage{from: t, payload: payload, ext: ext, deliverAt: deliverAt}
	// Transport fault injection: the sender has already committed its
	// SYNC record (it believes the call went out), so drops, delays,
	// and duplications perturb only what the network delivers. The
	// recorder sees every consult (including the zero verdict) so its
	// message ordinals align with a replaying injector's.
	var f RPCFault
	if inj := m.World.injector; inj != nil {
		f = inj.AtRPC(t, r[isa.A1], false)
	}
	if rec := m.World.recorder; rec != nil {
		rec.RecordRPCFault(t, r[isa.A1], false, f)
	}
	if f.Drop {
		t.State = BlockedRPC
		t.rpcReplyAt = uint32(r[isa.A4])
		return stepBlocked, 0
	}
	msg.deliverAt += f.Delay
	if f.Duplicate {
		dup := *msg
		ep.queue = append(ep.queue, &dup)
	}
	ep.queue = append(ep.queue, msg)
	// Wake waiting receivers; they re-execute their recv.
	var keep []*Thread
	for _, wt := range ep.waiters {
		if wt.State == BlockedRPC {
			wt.State = Runnable
		}
	}
	ep.waiters = keep
	t.State = BlockedRPC
	t.rpcReplyAt = uint32(r[isa.A4])
	return stepBlocked, 0
}

// rpcRecv implements SysRPCRecv: r1=endpoint, r2=buf addr, r3=cap.
// Blocks until a request is available; returns request length in r0
// and binds the request to the receiving thread for rpcReply.
func (m *Machine) rpcRecv(t *Thread) (stepResult, int) {
	p := t.Proc
	r := &t.Regs
	ep := m.World.endpoints[r[isa.A1]]
	if ep == nil || ep.proc != p {
		r[isa.RV] = ^uint64(0)
		return stepOK, 0
	}
	earliest := uint64(0)
	inFlight := false
	for i, msg := range ep.queue {
		if msg.deliverAt > m.clock {
			if !inFlight || msg.deliverAt < earliest {
				earliest, inFlight = msg.deliverAt, true
			}
			continue
		}
		ep.queue = append(ep.queue[:i], ep.queue[i+1:]...)
		if rec := m.World.recorder; rec != nil {
			rec.RecordRPCDeliver(t, r[isa.A1], msg.from, len(msg.payload))
		}
		n := uint64(len(msg.payload))
		if n > r[isa.A3] {
			n = r[isa.A3]
		}
		if !p.WriteBytes(r[isa.A2], msg.payload[:n]) {
			return stepFault, SigSegv
		}
		p.Hooks.OnRPCRecv(t, msg.ext, false)
		t.pendingReq = msg
		r[isa.RV] = n
		return stepOK, 0
	}
	if inFlight {
		// A message is on the wire: doze until it lands, then retry.
		t.State = Sleeping
		t.wakeAt = earliest
		return stepRetry, 0
	}
	// No request yet: block until a caller arrives, then retry.
	ep.waiters = append(ep.waiters, t)
	t.State = BlockedRPC
	return stepRetry, 0
}

// rpcReply implements SysRPCReply: r1=endpoint, r2=status, r3=resp
// addr, r4=resp len. Copies the response into the caller's buffer,
// attaches the runtime's reply extension, and unblocks the caller.
func (m *Machine) rpcReply(t *Thread) (stepResult, int) {
	p := t.Proc
	r := &t.Regs
	msg := t.pendingReq
	if msg == nil {
		r[isa.RV] = ^uint64(0)
		return stepOK, 0
	}
	t.pendingReq = nil
	resp, ok := p.ReadBytes(r[isa.A3], r[isa.A4])
	if !ok {
		return stepFault, SigSegv
	}
	ext := p.Hooks.OnRPCSend(t, true)
	// Reply-side drop: the server believes it replied (SYNC written,
	// status 0) but the caller never wakes — the half-open failure a
	// hang snap has to diagnose.
	var f RPCFault
	if inj := m.World.injector; inj != nil {
		f = inj.AtRPC(t, r[isa.A1], true)
	}
	if rec := m.World.recorder; rec != nil {
		rec.RecordRPCFault(t, r[isa.A1], true, f)
	}
	if f.Drop {
		r[isa.RV] = 0
		return stepOK, 0
	}

	caller := msg.from
	callerProc := caller.Proc
	if caller.State == BlockedRPC && !callerProc.Exited {
		// Length-prefixed copy into the caller's response buffer.
		var lenBuf [4]byte
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(resp)))
		addr := uint64(caller.rpcReplyAt)
		if callerProc.WriteBytes(addr, lenBuf[:]) && callerProc.WriteBytes(addr+4, resp) {
			caller.Regs[isa.RV] = r[isa.A2] // status
		} else {
			caller.Regs[isa.RV] = ^uint64(0)
		}
		callerProc.Hooks.OnRPCRecv(caller, ext, true)
		caller.State = Runnable
	}
	r[isa.RV] = 0
	return stepOK, 0
}

// ReplyToFault lets the runtime complete an RPC on behalf of a thread
// that faulted while serving a request: the caller is unblocked with
// a fault status instead of hanging (the server's catch → client
// RPC_E_SERVERFAULT path of Figure 6).
func ReplyToFault(t *Thread, status uint64) {
	msg := t.pendingReq
	if msg == nil {
		return
	}
	t.pendingReq = nil
	caller := msg.from
	if caller.State == BlockedRPC && !caller.Proc.Exited {
		var lenBuf [4]byte
		caller.Proc.WriteBytes(uint64(caller.rpcReplyAt), lenBuf[:])
		caller.Regs[isa.RV] = status
		ext := t.Proc.Hooks.OnRPCSend(t, true)
		caller.Proc.Hooks.OnRPCRecv(caller, ext, true)
		caller.State = Runnable
	}
}
