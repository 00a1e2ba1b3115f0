package tbrt

import (
	"slices"
	"strconv"

	"traceback/internal/trace"
	"traceback/internal/vm"
)

// assignBuffer moves a probationary thread onto a real buffer: the
// first free main buffer, or the shared desperation buffer when none
// is available (paper §3.1.1). An empty free pool is first refilled
// from threads killed without notice. A ThreadStart record is written
// so reconstruction can split buffers that house several thread
// lifetimes.
func (rt *Runtime) assignBuffer(t *vm.Thread) *buffer {
	if len(rt.free) == 0 {
		rt.scavengeDeadThreads()
	}
	var b *buffer
	if len(rt.free) > 0 {
		b = rt.free[0]
		rt.free = rt.free[1:]
		rt.met.buffersFree.Set(int64(len(rt.free)))
	} else {
		b = rt.desperation
		rt.met.desperations.Inc()
		rt.event("desperation", "tid "+strconv.Itoa(t.TID))
	}
	rt.byThread[t.TID] = b
	// Resume where the previous owner stopped (records are gradually
	// overwritten, paper §3.1.2); a fresh buffer starts at the top.
	resume := rt.resumePoint(b)
	rt.hdrWrite(b, hdrOwner, uint32(t.TID))
	rt.hdrWrite(b, hdrLastPtr, 0)
	rt.setTLSPtr(t, resume)
	rt.appendWordsRaw(t, b, trace.AppendThreadStart(nil, uint32(t.TID), rt.now()))
	return b
}

// resumePoint returns the cursor for a newly assigned buffer: 4 bytes
// before the first data word (the next append lands on word 0), or
// the previous owner's release point.
func (rt *Runtime) resumePoint(b *buffer) uint64 {
	if last := rt.hdrRead(b, hdrLastPtr); last != 0 {
		return uint64(last)
	}
	return b.dataAddr - 4
}

// Traced reports whether tid has left probation: it owns a real
// trace buffer and its history is recoverable from a snap. Fault
// injectors use this to target threads whose snap will carry
// evidence.
func (rt *Runtime) Traced(tid int) bool {
	b := rt.byThread[tid]
	return b != nil && b.kind != bufProbation
}

// allocSlot advances the thread's cursor by one record slot, handling
// sentinel hits (sub-buffer commit / wrap) and returns the slot
// address. TLS is updated to the slot (it becomes the "last written"
// record once the caller stores into it).
func (rt *Runtime) allocSlot(t *vm.Thread, b *buffer) uint64 {
	next := rt.tlsPtr(t) + 4
	if w, ok := rt.proc.ReadU32(next); !ok || w == trace.Sentinel {
		next = rt.wrap(t, b, next)
	}
	rt.setTLSPtr(t, next)
	return next
}

// wrap handles a sentinel hit at address at (paper §3.1, §3.2): the
// just-filled sub-buffer is committed (its index recorded in the
// buffer header) and the next sub-buffer is zeroed so that a dead
// thread's progress can be found by scanning for the last non-zero
// entry. When the final sub-buffer fills, writing wraps to the first.
// Threads in the desperation buffer take this opportunity to move to
// a real buffer if one has freed up (paper §3.1).
func (rt *Runtime) wrap(t *vm.Thread, b *buffer, at uint64) uint64 {
	rt.met.wraps.Inc()
	rt.event("buffer-wrap", "tid "+strconv.Itoa(t.TID))
	if b.kind == bufDesperation && len(rt.free) > 0 {
		nb := rt.assignBuffer(t)
		return rt.allocSlot(t, nb)
	}
	idx, ok := b.wordIndex(at)
	if !ok {
		// Cursor outside the buffer (fresh assignment path): restart
		// at the top.
		idx = b.words - 1
	}
	sub := idx / b.subWords
	if b.subs > 1 {
		rt.hdrWrite(b, hdrCommitted, uint32(sub))
		rt.met.subCommits.Inc()
	}
	start := rt.clearSub(b, (sub+1)%b.subs)
	return b.dataAddr + uint64(start)*4
}

// clearSub zeroes sub-buffer sub's data words, preserving its
// sentinel, so that everything past a writer's cursor reads as
// Invalid, and returns the index of its first word.
func (rt *Runtime) clearSub(b *buffer, sub int) int {
	start := sub * b.subWords
	for i := start; i < start+b.subWords-1; i++ {
		rt.proc.WriteU32(b.dataAddr+uint64(i)*4, trace.Invalid)
	}
	return start
}

// appendWordsRaw appends words through the thread's cursor.
func (rt *Runtime) appendWordsRaw(t *vm.Thread, b *buffer, words []trace.Word) {
	for _, w := range words {
		slot := rt.allocSlot(t, b)
		rt.proc.WriteU32(slot, w)
	}
}

// appendEvent writes extended records into the thread's buffer. If a
// DAG record is in progress (the cursor points at one), it is
// re-issued after the event so the run's remaining lightweight probes
// OR into a valid slot; reconstruction merges the re-issue (see
// trace.KindReissue).
func (rt *Runtime) appendEvent(t *vm.Thread, words []trace.Word) {
	b := rt.byThread[t.TID]
	if b == nil || b.kind == bufProbation {
		return
	}
	cur, ok := rt.proc.ReadU32(rt.tlsPtr(t))
	rt.appendWordsRaw(t, b, words)
	if ok && trace.IsDAG(cur) && cur != trace.Sentinel {
		rt.appendWordsRaw(t, b, trace.AppendReissueMark(nil))
		slot := rt.allocSlot(t, b)
		rt.proc.WriteU32(slot, cur)
	}
}

// releaseBuffer ends a thread's use of its buffer: a ThreadEnd record
// is written, the release point saved in the header, and the buffer
// freed for reassignment (paper §3.1.2).
func (rt *Runtime) releaseBuffer(t *vm.Thread, orderly bool) {
	b := rt.byThread[t.TID]
	if b == nil {
		return
	}
	delete(rt.byThread, t.TID)
	if b.kind == bufProbation {
		return
	}
	if orderly {
		rt.appendWordsRaw(t, b, trace.AppendThreadEnd(nil, uint32(t.TID), rt.now()))
		rt.hdrWrite(b, hdrLastPtr, uint32(rt.tlsPtr(t)))
	} else {
		// Abrupt death: the thread's TLS is considered lost. Its
		// uncommitted tail is sacrificed (paper §3.1.2, §3.2): the
		// first uncommitted sub-buffer is zeroed, as a wrap would,
		// and the cursor parked at its start. The next owner resumes
		// there, and if it too dies abruptly, the scan for its last
		// non-zero word must not find the dead thread's stale records.
		committed := int(rt.hdrRead(b, hdrCommitted))
		start := rt.clearSub(b, (committed+1)%b.subs)
		rt.hdrWrite(b, hdrLastPtr, uint32(b.dataAddr+uint64(start)*4-4))
	}
	if b.kind == bufMain {
		rt.hdrWrite(b, hdrOwner, 0)
		rt.free = append(rt.free, b)
		rt.met.buffersFree.Set(int64(len(rt.free)))
	}
}

// scavengeDeadThreads reclaims the main buffers of threads that
// terminated without notifying the runtime (abrupt kills), paper
// §3.1.2's dead-thread scavenging pass. Owners are released in
// ascending TID order, so the free list, and with it the buffer each
// later thread resumes in, never depends on map order.
func (rt *Runtime) scavengeDeadThreads() {
	var dead []int
	for tid, b := range rt.byThread {
		if t := rt.proc.Threads[tid]; b.kind == bufMain && t.State == vm.Exited && t.KilledAbruptly {
			dead = append(dead, tid)
		}
	}
	slices.Sort(dead)
	for _, tid := range dead {
		rt.releaseBuffer(rt.proc.Threads[tid], false)
		rt.met.scavenges.Inc()
		rt.event("scavenge", "tid "+strconv.Itoa(tid))
	}
}
