package tbrt

import (
	"fmt"
	"slices"
	"strconv"

	"traceback/internal/snap"
	"traceback/internal/telemetry"
	"traceback/internal/trace"
	"traceback/internal/vm"
)

// Geometry sizes a buffer set: Buffers main buffers of Words 32-bit
// words, each in Subs sub-buffers (1: a plain ring with no commit
// points), and a desperation buffer of Words words.
type Geometry struct {
	Words, Buffers, Subs int
}

// BufferSet is one runtime's trace buffers, laid out in a process's
// address space, the region that models the paper's memory-mapped
// file (§3.1–3.2): a pool of sub-buffered main buffers, the shared
// desperation buffer and the probation buffer. Authoritative state
// (owner, committed sub-buffer, release point) lives in in-memory
// headers, so a dump reads pure memory.
//
// A writer is a thread ID plus a cursor, the address of the last
// record it wrote: a TLS slot for a native thread, a field of the
// thread for a managed one. Every write goes through that cursor.
type BufferSet struct {
	proc *vm.Process
	now  func() uint64
	// owner returns thread tid's cursor (nil when there is no such
	// thread) and whether the thread died without notice, losing it.
	owner func(tid int) (cur *uint64, lost bool)

	main        []*buffer
	probation   *buffer
	desperation *buffer

	byThread map[int]*buffer
	free     []*buffer

	// The buffer set's share of the runtime's telemetry.
	wraps, subCommits, desperations, scavenges *telemetry.Counter
	buffersFree, buffersTotal                  *telemetry.Gauge
	rec                                        *telemetry.Recorder
}

// buffer is the host-side view of one trace buffer.
type buffer struct {
	kind       snap.BufferKind
	headerAddr uint64
	dataAddr   uint64
	words      int
	subWords   int // words per sub-buffer, including its sentinel
	subs       int
}

// In-memory buffer header offsets (16 bytes).
const (
	hdrOwner     = 0
	hdrCommitted = 4
	hdrLastPtr   = 8
	hdrKind      = 12
	hdrSize      = 16
)

// NewBufferSet carves a buffer set of geometry g out of p's address
// space and lays out headers and sentinels. Its counters and flight
// events go to reg; now stamps the ThreadStart and ThreadEnd records;
// owner resolves a buffer owner's cursor for wraps, scavenging and
// dumps.
func NewBufferSet(p *vm.Process, g Geometry, reg *telemetry.Registry, now func() uint64, owner func(tid int) (*uint64, bool)) (*BufferSet, error) {
	s := &BufferSet{
		proc:         p,
		now:          now,
		owner:        owner,
		byThread:     map[int]*buffer{},
		wraps:        reg.Counter("tbrt_wraps_total", "trace buffer sentinel hits (sub-buffer wraps)"),
		subCommits:   reg.Counter("tbrt_subcommits_total", "sub-buffer commit points recorded"),
		desperations: reg.Counter("tbrt_desperations_total", "threads assigned to the shared desperation buffer"),
		scavenges:    reg.Counter("tbrt_scavenges_total", "dead-thread buffers reclaimed by scavenging"),
		buffersFree:  reg.Gauge("tbrt_buffers_free", "main trace buffers currently unassigned"),
		buffersTotal: reg.Gauge("tbrt_buffers_total", "main trace buffers configured"),
		rec:          reg.Recorder(256),
	}
	total := g.Buffers*(hdrSize+g.Words*4) +
		(hdrSize + 2*4) + // probation: pad + sentinel
		(hdrSize + g.Words*4) // desperation
	base := p.AllocRegion(uint32(total))
	if base == 0 {
		return nil, fmt.Errorf("tbrt: cannot allocate %d-byte trace region", total)
	}
	addr := uint64(base)
	mk := func(kind snap.BufferKind, words, subs int) *buffer {
		b := &buffer{
			kind:       kind,
			headerAddr: addr,
			dataAddr:   addr + hdrSize,
			words:      words,
			subs:       subs,
			subWords:   words / subs,
		}
		addr += uint64(hdrSize + words*4)
		s.hdrWrite(b, hdrKind, uint32(kind))
		// "No sub-buffer committed yet" is represented as subs-1, so
		// the first uncommitted sub-buffer — where a dead thread's
		// progress is sought — is sub 0.
		s.hdrWrite(b, hdrCommitted, uint32(subs-1))
		s.initSentinels(b)
		return b
	}
	for i := 0; i < g.Buffers; i++ {
		b := mk(snap.BufMain, g.Words, g.Subs)
		s.main = append(s.main, b)
		s.free = append(s.free, b)
	}
	s.probation = mk(snap.BufProbation, 2, 1)
	s.desperation = mk(snap.BufDesperation, g.Words, 1)
	s.buffersFree.Set(int64(len(s.free)))
	s.buffersTotal.Set(int64(len(s.main)))
	return s, nil
}

// initSentinels zeroes a buffer and writes the sub-buffer sentinels
// (every sub-buffer's final word; paper §3.1/§3.2).
func (s *BufferSet) initSentinels(b *buffer) {
	for i := 0; i < b.words; i++ {
		s.proc.WriteU32(b.dataAddr+uint64(i)*4, trace.Invalid)
	}
	for sub := 0; sub < b.subs; sub++ {
		end := (sub+1)*b.subWords - 1
		s.proc.WriteU32(b.dataAddr+uint64(end)*4, trace.Sentinel)
	}
	if b.kind == snap.BufProbation {
		// Probation holds only the sentinel: the first probe of any
		// thread immediately triggers buffer_wrap (paper §3.1).
		s.proc.WriteU32(b.dataAddr+4, trace.Sentinel)
	}
}

// traced returns tid's buffer, or nil while it has none or is on
// probation.
func (s *BufferSet) traced(tid int) *buffer {
	if b := s.byThread[tid]; b != nil && b.kind != snap.BufProbation {
		return b
	}
	return nil
}

// Assign moves writer tid onto a real buffer: the first free main
// buffer, or the shared desperation buffer when none is available
// (paper §3.1.1). An empty free pool is first refilled from threads
// killed without notice. A ThreadStart record is written so
// reconstruction can split buffers that house several thread
// lifetimes.
func (s *BufferSet) Assign(tid int, cur *uint64) {
	if len(s.free) == 0 {
		s.scavenge()
	}
	var b *buffer
	if len(s.free) > 0 {
		b = s.free[0]
		s.free = s.free[1:]
		s.buffersFree.Set(int64(len(s.free)))
	} else {
		b = s.desperation
		s.desperations.Inc()
		s.event("desperation", "tid "+strconv.Itoa(tid))
	}
	s.byThread[tid] = b
	// Resume where the previous owner stopped (records are gradually
	// overwritten, paper §3.1.2); a fresh buffer starts at the top.
	resume := b.dataAddr - 4
	if last := s.hdrRead(b, hdrLastPtr); last != 0 {
		resume = uint64(last)
	}
	s.hdrWrite(b, hdrOwner, uint32(tid))
	s.hdrWrite(b, hdrLastPtr, 0)
	*cur = resume
	s.Append(tid, cur, trace.AppendThreadStart(nil, uint32(tid), s.now()))
}

// allocSlot advances the cursor by one record slot, handling sentinel
// hits (sub-buffer commit / wrap), and returns the slot address. The
// cursor is updated to the slot: it becomes the "last written" record
// once the caller stores into it.
func (s *BufferSet) allocSlot(tid int, cur *uint64, b *buffer) uint64 {
	next := *cur + 4
	if w, ok := s.proc.ReadU32(next); !ok || w == trace.Sentinel {
		next = s.wrap(tid, cur, b, next)
	}
	*cur = next
	return next
}

// wrap handles a sentinel hit at address at (paper §3.1, §3.2): the
// just-filled sub-buffer is committed (its index recorded in the
// buffer header) and the next sub-buffer is zeroed so that a dead
// thread's progress can be found by scanning for the last non-zero
// entry. When the final sub-buffer fills, writing wraps to the first.
// Threads in the desperation buffer take this opportunity to move to
// a real buffer if one has freed up (paper §3.1).
func (s *BufferSet) wrap(tid int, cur *uint64, b *buffer, at uint64) uint64 {
	s.wraps.Inc()
	s.event("buffer-wrap", "tid "+strconv.Itoa(tid))
	if b.kind == snap.BufDesperation && len(s.free) > 0 {
		s.Assign(tid, cur)
		return s.allocSlot(tid, cur, s.byThread[tid])
	}
	idx, ok := b.wordIndex(at)
	if !ok {
		// Cursor outside the buffer (fresh assignment path): restart
		// at the top.
		idx = b.words - 1
	}
	sub := idx / b.subWords
	if b.subs > 1 {
		s.hdrWrite(b, hdrCommitted, uint32(sub))
		s.subCommits.Inc()
	}
	start := s.clearSub(b, (sub+1)%b.subs)
	return b.dataAddr + uint64(start)*4
}

// clearSub zeroes sub-buffer sub's data words, preserving its
// sentinel, so that everything past a writer's cursor reads as
// Invalid, and returns the index of its first word.
func (s *BufferSet) clearSub(b *buffer, sub int) int {
	start := sub * b.subWords
	for i := start; i < start+b.subWords-1; i++ {
		s.proc.WriteU32(b.dataAddr+uint64(i)*4, trace.Invalid)
	}
	return start
}

// Append writes words through tid's cursor; a writer without a real
// buffer writes nothing.
func (s *BufferSet) Append(tid int, cur *uint64, words []trace.Word) {
	if b := s.traced(tid); b != nil {
		for _, w := range words {
			s.proc.WriteU32(s.allocSlot(tid, cur, b), w)
		}
	}
}

// AppendEvent writes extended records through tid's cursor. If a DAG
// record is in progress (the cursor points at one), it is re-issued
// after the event so the run's remaining lightweight probes OR into a
// valid slot; reconstruction merges the re-issue (see
// trace.KindReissue).
func (s *BufferSet) AppendEvent(tid int, cur *uint64, words []trace.Word) {
	last, ok := s.proc.ReadU32(*cur)
	s.Append(tid, cur, words)
	if ok && trace.IsDAG(last) && s.traced(tid) != nil {
		s.Append(tid, cur, trace.AppendReissueMark(nil))
		s.Append(tid, cur, []trace.Word{last})
	}
}

// MarkPath ORs a lightweight probe's path bits into the DAG record
// under the cursor, as the native probe's ORM4 does.
func (s *BufferSet) MarkPath(cur *uint64, bits uint32) {
	if w, ok := s.proc.ReadU32(*cur); ok && trace.IsDAG(w) {
		s.proc.WriteU32(*cur, w|trace.Word(bits)&trace.PathMask)
	}
}

// Release ends writer tid's use of its buffer and frees it for
// reassignment (paper §3.1.2). An orderly release writes a ThreadEnd
// record and saves the release point in the header. A nil cursor
// means the thread died without notice and took its cursor with it:
// its uncommitted tail is sacrificed (paper §3.1.2, §3.2). The first
// uncommitted sub-buffer is zeroed, as a wrap would, and the release
// point parked at its start. The next owner resumes there, and if it
// too dies abruptly, the scan for its last non-zero word must not find
// the dead thread's stale records.
func (s *BufferSet) Release(tid int, cur *uint64) {
	b := s.traced(tid)
	if b != nil && cur != nil {
		s.Append(tid, cur, trace.AppendThreadEnd(nil, uint32(tid), s.now()))
		// An Append may have moved a desperate writer to a main buffer.
		b = s.byThread[tid]
	}
	delete(s.byThread, tid)
	if b == nil {
		return
	}
	if cur != nil {
		s.hdrWrite(b, hdrLastPtr, uint32(*cur))
	} else {
		committed := int(s.hdrRead(b, hdrCommitted))
		start := s.clearSub(b, (committed+1)%b.subs)
		s.hdrWrite(b, hdrLastPtr, uint32(b.dataAddr+uint64(start)*4-4))
	}
	if b.kind == snap.BufMain {
		s.hdrWrite(b, hdrOwner, 0)
		s.free = append(s.free, b)
		s.buffersFree.Set(int64(len(s.free)))
	}
}

// scavenge reclaims the main buffers of threads that terminated
// without notifying the runtime (abrupt kills), paper §3.1.2's
// dead-thread scavenging pass. Owners are released in ascending TID
// order, so the free list, and with it the buffer each later thread
// resumes in, never depends on map order.
func (s *BufferSet) scavenge() {
	var dead []int
	for tid, b := range s.byThread {
		if _, lost := s.owner(tid); b.kind == snap.BufMain && lost {
			dead = append(dead, tid)
		}
	}
	slices.Sort(dead)
	for _, tid := range dead {
		s.Release(tid, nil)
		s.scavenges.Inc()
		s.event("scavenge", "tid "+strconv.Itoa(tid))
	}
}

// Dump reads the main buffers and the desperation buffer out of
// process memory, and returns them with their total size in words.
func (s *BufferSet) Dump() (dumps []snap.BufferDump, words int) {
	for _, b := range append(slices.Clone(s.main), s.desperation) {
		dumps = append(dumps, s.dumpBuffer(b))
		words += b.words
	}
	return dumps, words
}

// dumpBuffer reads one buffer's header and words out of process
// memory. The last-written pointer is taken from the live owner's
// cursor when trustworthy, from the header's release pointer
// otherwise; after an abrupt kill neither exists and reconstruction
// falls back to the committed-sub-buffer scan (LastKnown=false).
func (s *BufferSet) dumpBuffer(b *buffer) snap.BufferDump {
	d := snap.BufferDump{
		Kind:         b.kind,
		OwnerTID:     s.hdrRead(b, hdrOwner),
		CommittedSub: s.hdrRead(b, hdrCommitted),
		SubWords:     uint32(b.subWords),
	}
	words := make([]uint32, b.words)
	for i := range words {
		words[i], _ = s.proc.ReadU32(b.dataAddr + uint64(i)*4)
	}
	d.SetWords(words)

	if cur, lost := s.owner(int(d.OwnerTID)); d.OwnerTID != 0 && cur != nil {
		if lost {
			// Cursor lost with the thread (paper §3.2).
			d.LastKnown = false
		} else if idx, ok := b.wordIndex(*cur); ok {
			d.LastPtr = uint32(idx)
			d.LastKnown = true
		}
	} else if last := s.hdrRead(b, hdrLastPtr); last != 0 {
		if idx, ok := b.wordIndex(uint64(last)); ok {
			d.LastPtr = uint32(idx)
			d.LastKnown = true
		}
	}
	if b.kind == snap.BufDesperation {
		// Shared unsynchronized writes: contents are declared
		// unrecoverable (paper §3.1).
		d.LastKnown = false
	}
	return d
}

// event records a flight-recorder entry stamped with the
// deterministic machine clock.
func (s *BufferSet) event(kind, detail string) {
	s.rec.Record(s.proc.Machine.Clock(), kind, detail)
}

func (s *BufferSet) hdrRead(b *buffer, off uint64) uint32 {
	v, _ := s.proc.ReadU32(b.headerAddr + off)
	return v
}

func (s *BufferSet) hdrWrite(b *buffer, off uint64, v uint32) {
	s.proc.WriteU32(b.headerAddr+off, v)
}

// wordIndex converts an address inside b's data to a word index.
func (b *buffer) wordIndex(addr uint64) (int, bool) {
	if addr < b.dataAddr || addr >= b.dataAddr+uint64(b.words)*4 {
		return 0, false
	}
	return int(addr-b.dataAddr) / 4, true
}
