package trace

import "encoding/binary"

// LogicalThreads is one runtime's side of the logical-thread protocol
// (paper §5.1): which logical thread each physical thread is bound to
// and the next logical-thread ID to hand out.
// Every hop of a call — an RPC between machines or a JNI-style call
// between the managed and native runtimes of one process — carries a
// 16-byte extension (origin runtime ID, logical thread, seq) and
// writes a SYNC record on each side. Send and Recv return that record
// without a timestamp: the caller stamps TS when it writes it.
type LogicalThreads struct {
	runtimeID uint64
	bindings  map[int]logicalBinding
	next      uint32
}

type logicalBinding struct {
	origin uint64
	lt     uint32
	seq    uint32
}

// NewLogicalThreads returns the protocol state of the runtime whose
// SYNC records carry runtimeID.
func NewLogicalThreads(runtimeID uint64) *LogicalThreads {
	return &LogicalThreads{runtimeID: runtimeID, bindings: map[int]logicalBinding{}}
}

// Send is the caller's call-send or the callee's reply-send: an
// unbound thread sending a call starts a fresh logical thread, a bound
// one bumps its seq. A reply on an unbound thread answers a call this
// runtime never saw, so there is nothing to stitch and ok is false.
func (l *LogicalThreads) Send(tid int, reply bool) (s Sync, ext []byte, ok bool) {
	b, bound := l.bindings[tid]
	switch {
	case bound:
		b.seq++
	case reply:
		return Sync{}, nil, false
	default:
		l.next++
		b = logicalBinding{origin: l.runtimeID, lt: l.next}
	}
	l.bindings[tid] = b
	point := SyncCallSend
	if reply {
		point = SyncReplySend
	}
	ext = make([]byte, 16)
	binary.LittleEndian.PutUint64(ext, b.origin)
	binary.LittleEndian.PutUint32(ext[8:], b.lt)
	binary.LittleEndian.PutUint32(ext[12:], b.seq)
	return Sync{Point: point, RuntimeID: b.origin, LogicalThread: b.lt, Seq: b.seq}, ext, true
}

// Recv is the callee's call-recv or the caller's reply-recv: the
// thread adopts the sender's logical thread at the next seq. An
// extension that is not 16 bytes is ignored (ok false).
func (l *LogicalThreads) Recv(tid int, ext []byte, reply bool) (Sync, bool) {
	if len(ext) != 16 {
		return Sync{}, false
	}
	b := logicalBinding{
		origin: binary.LittleEndian.Uint64(ext),
		lt:     binary.LittleEndian.Uint32(ext[8:]),
		seq:    binary.LittleEndian.Uint32(ext[12:]) + 1,
	}
	l.bindings[tid] = b
	point := SyncCallRecv
	if reply {
		point = SyncReplyRecv
	}
	return Sync{Point: point, RuntimeID: b.origin, LogicalThread: b.lt, Seq: b.seq}, true
}

// Drop forgets tid's binding (the thread exited).
func (l *LogicalThreads) Drop(tid int) { delete(l.bindings, tid) }
