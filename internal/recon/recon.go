// Package recon implements trace reconstruction (paper §4): turning a
// snap's raw trace buffers plus the instrumentation mapfiles back
// into line-by-line, per-thread execution histories, with call
// hierarchy, exception trimming, cross-thread interleaving, and
// (in distrib.go) cross-runtime/cross-machine logical-thread
// stitching.
package recon

import (
	"fmt"

	"traceback/internal/module"
	"traceback/internal/snap"
	"traceback/internal/trace"
)

// MapSet indexes mapfiles by module checksum, the key that ties trace
// metadata to instrumentation output (paper §2.3). A MapSet is not
// synchronized: build it fully (NewMapSet / Add) before sharing it
// across goroutines, after which concurrent ForChecksum calls are
// safe. For lazy, concurrent loading use MapCache instead.
type MapSet struct {
	byChecksum map[string]*module.MapFile
}

// NewMapSet builds a MapSet.
func NewMapSet(maps ...*module.MapFile) *MapSet {
	s := &MapSet{byChecksum: map[string]*module.MapFile{}}
	for _, m := range maps {
		s.Add(m)
	}
	return s
}

// Add registers a mapfile.
func (s *MapSet) Add(m *module.MapFile) { s.byChecksum[m.Checksum] = m }

// ForChecksum returns the mapfile for a module checksum.
func (s *MapSet) ForChecksum(sum string) (*module.MapFile, bool) {
	m, ok := s.byChecksum[sum]
	return m, ok
}

// EventKind classifies reconstructed events.
type EventKind uint8

const (
	EvLine EventKind = iota
	EvException
	EvExceptionEnd
	EvSync
	EvSnapMark
	EvThreadStart
	EvThreadEnd
	EvBadDAG
	EvSyscall // synchronization-point marker with resolved position
)

func (k EventKind) String() string {
	switch k {
	case EvLine:
		return "line"
	case EvException:
		return "exception"
	case EvExceptionEnd:
		return "exception-end"
	case EvSync:
		return "sync"
	case EvSnapMark:
		return "snap"
	case EvThreadStart:
		return "thread-start"
	case EvThreadEnd:
		return "thread-end"
	case EvBadDAG:
		return "bad-dag"
	case EvSyscall:
		return "syscall"
	}
	return "?"
}

// Event is one entry of a reconstructed history.
type Event struct {
	Kind EventKind
	// Fault marks the line an exception record trimmed the trace at.
	Fault  bool
	Line   uint32
	Module string
	File   string
	Func   string
	Depth  int
	// Repeat counts consecutive re-executions of the same line
	// collapsed into this event (loops).
	Repeat int
	// Note carries human-oriented detail: call targets, signal names,
	// sync descriptions.
	Note string
	// TS is the last ordering anchor at or before this event (0 if
	// none); AnchorSeq disambiguates events sharing an anchor.
	TS        uint64
	AnchorSeq int
	// Sync is set for EvSync events.
	Sync *trace.Sync
	// CallTo is set on the line event that performs a call.
	CallTo string

	// runID identifies which DAG-record expansion produced a line
	// event, distinguishing real re-executions (loops, which bump
	// Repeat) from instrumentation redundancy within one expansion
	// (collapsed silently, paper §4.2).
	runID int
}

// ThreadTrace is one thread's reconstructed history, oldest first.
type ThreadTrace struct {
	TID    uint32
	Events []Event
	// Truncated is true when older history was overwritten (the
	// buffer wrapped) or lost to abrupt termination.
	Truncated bool
	// Faulted is true when the history ends in an exception record.
	Faulted bool
}

// ProcessTrace is a whole process's reconstruction.
type ProcessTrace struct {
	Snap    *snap.Snap
	Threads []*ThreadTrace
	// Unrecoverable counts buffers whose data could not be mined
	// (desperation sharing, no known write pointer on a plain ring).
	Unrecoverable int
}

// ThreadByTID finds a thread's trace.
func (pt *ProcessTrace) ThreadByTID(tid uint32) (*ThreadTrace, bool) {
	for _, t := range pt.Threads {
		if t.TID == tid {
			return t, true
		}
	}
	return nil, false
}

// FaultThread is the thread the fault-directed view leads with (paper
// §4.3.3): the snap's trigger thread when it has history, else the
// first faulted thread with history, else the first thread with any;
// nil when no thread has history. Render and the crash signature
// both take their thread from here.
func (pt *ProcessTrace) FaultThread() *ThreadTrace {
	if pt.Snap.TriggerTID != 0 {
		if t, ok := pt.ThreadByTID(pt.Snap.TriggerTID); ok && len(t.Events) > 0 {
			return t
		}
	}
	var first *ThreadTrace
	for _, t := range pt.Threads {
		if len(t.Events) == 0 {
			continue
		}
		if t.Faulted {
			return t
		}
		if first == nil {
			first = t
		}
	}
	return first
}

// Reconstruct rebuilds per-thread histories from a snap and its
// mapfiles. This is the sequential path — the oracle the parallel
// Pipeline must match byte for byte.
func Reconstruct(s *snap.Snap, maps MapResolver) (*ProcessTrace, error) {
	pt := &ProcessTrace{Snap: s}
	for bi := range s.Buffers {
		plan := mineBuffer(&s.Buffers[bi])
		pt.Unrecoverable += plan.unrecoverable
		for _, seg := range plan.segs {
			tt, err := expandSegment(s, maps, seg)
			if err != nil {
				return nil, err
			}
			tt.Truncated = tt.Truncated || plan.truncated
			pt.Threads = append(pt.Threads, tt)
		}
	}
	return pt, nil
}

// bufferPlan is the mined, thread-split content of one buffer — the
// output of the mining stage, ready for per-segment expansion.
type bufferPlan struct {
	segs          []segment
	truncated     bool
	unrecoverable int
	recordsMined  int
}

// mineBuffer recovers one buffer's record stream and splits it by
// thread. It is a pure function of the buffer dump (no shared state),
// which is what lets the pipeline mine buffers concurrently.
func mineBuffer(b *snap.BufferDump) bufferPlan {
	var plan bufferPlan
	// Decode the raw words once; every helper below works on the
	// shared read-only slice.
	words := b.Words()
	switch b.Kind {
	case snap.BufProbation:
		return plan
	case snap.BufDesperation:
		if !b.LastKnown {
			// Shared unsynchronized writes are unrecoverable —
			// but an untouched desperation buffer is just empty.
			if b.OwnerTID != 0 || hasData(words) {
				plan.unrecoverable++
			}
			return plan
		}
	}
	span, truncated, ok := logicalSpan(b, words)
	if !ok {
		if b.OwnerTID != 0 {
			plan.unrecoverable++
		}
		return plan
	}
	recs := trace.MineBackward(span)
	if len(recs) == 0 {
		return plan
	}
	plan.truncated = truncated
	plan.recordsMined = len(recs)
	trace.Reverse(recs) // oldest first
	plan.segs = splitByThread(recs, b.OwnerTID)
	return plan
}

// lineForAddr resolves an absolute code address to (module, file,
// line) via the snap's module table and the mapfiles' line spans.
func lineForAddr(s *snap.Snap, maps MapResolver, addr uint64) (mod, file string, line uint32, ok bool) {
	mi, ok := s.ModuleForAddr(addr)
	if !ok {
		return "", "", 0, false
	}
	mf, ok := maps.ForChecksum(mi.Checksum)
	if !ok {
		return mi.Name, "", 0, false
	}
	rel := uint32(addr - uint64(mi.CodeBase))
	for di := range mf.DAGs {
		for bi := range mf.DAGs[di].Blocks {
			b := &mf.DAGs[di].Blocks[bi]
			if rel < b.Start || rel >= b.End {
				continue
			}
			for _, ls := range b.Lines {
				if rel >= ls.Start && rel < ls.End {
					return mi.Name, ls.File, ls.Line, true
				}
			}
		}
	}
	return mi.Name, "", 0, false
}

// hasData reports whether any non-sentinel word was ever written.
func hasData(words []trace.Word) bool {
	for _, w := range words {
		if w != trace.Invalid && w != trace.Sentinel {
			return true
		}
	}
	return false
}

// logicalSpan rotates a buffer into oldest-to-newest order with the
// sub-buffer boundary sentinels removed BY POSITION (paper §4.1:
// boundaries are removed to produce a contiguous span; stripping by
// value would destroy payload words that happen to equal the sentinel
// pattern, e.g. the high half of a large timestamp). For a known
// write pointer the newest record is at LastPtr; otherwise the
// committed-sub-buffer header plus the zeroed-frontier scan recovers
// the dead thread's progress (paper §3.2).
func logicalSpan(b *snap.BufferDump, words []trace.Word) (span []trace.Word, truncated bool, ok bool) {
	if len(words) == 0 {
		return nil, false, false
	}
	newest := -1
	if b.LastKnown {
		newest = int(b.LastPtr)
		if newest >= len(words) {
			return nil, false, false
		}
	} else {
		if b.SubWords == 0 || int(b.SubWords) >= len(words) {
			// Plain ring with no commit points and no pointer:
			// unrecoverable.
			return nil, false, false
		}
		subs := len(words) / int(b.SubWords)
		next := (int(b.CommittedSub) + 1) % subs
		lo := next * int(b.SubWords)
		hi := lo + int(b.SubWords) - 1 // exclude the sentinel slot
		for i := lo; i < hi && i < len(words); i++ {
			if words[i] != trace.Invalid && words[i] != trace.Sentinel {
				newest = i
			}
		}
		if newest == -1 {
			// Nothing in the open sub-buffer: newest is the end of
			// the committed one.
			newest = lo - 1
			if newest < 0 {
				newest = len(words) - 1
			}
		}
	}

	isBoundary := func(i int) bool {
		return b.SubWords > 0 && (i+1)%int(b.SubWords) == 0
	}
	stripped := make([]trace.Word, 0, len(words))
	newestStripped := -1
	for i, w := range words {
		if isBoundary(i) {
			continue
		}
		if i <= newest {
			newestStripped = len(stripped)
		}
		stripped = append(stripped, w)
	}
	if newestStripped < 0 {
		return nil, false, false
	}
	span = append(span, stripped[newestStripped+1:]...)
	span = append(span, stripped[:newestStripped+1]...)
	// The buffer wrapped (and thus lost history) if anything nonzero
	// precedes the newest position's logical start.
	for _, w := range stripped[newestStripped+1:] {
		if w != trace.Invalid {
			truncated = true
			break
		}
	}
	return span, truncated, true
}

// segment is a run of records belonging to one thread.
type segment struct {
	tid  uint32
	recs []trace.Record
}

// splitByThread partitions a buffer's record stream at thread
// start/end records (buffers house several thread lifetimes in
// sequence, paper §3.1.2). Segments alias recs rather than copy it.
func splitByThread(recs []trace.Record, ownerTID uint32) []segment {
	var segs []segment
	var tid uint32
	start := 0
	flush := func(end int) {
		if end > start {
			segs = append(segs, segment{tid: tid, recs: recs[start:end]})
		}
		start, tid = end, 0
	}
	for i, r := range recs {
		switch r.Kind {
		case trace.KindThreadStart:
			flush(i)
			if ev, err := trace.DecodeThreadEvent(r); err == nil {
				tid = ev.TID
			}
		case trace.KindThreadEnd:
			// A wrapped buffer may have lost its ThreadStart; the
			// termination record still identifies the owner.
			if tid == 0 {
				if ev, err := trace.DecodeThreadEvent(r); err == nil {
					tid = ev.TID
				}
			}
			flush(i + 1)
		}
	}
	flush(len(recs))
	// Records before the first ThreadStart belong to an earlier,
	// partially overwritten lifetime; if there is exactly one
	// headless segment and we know the owner, attribute it.
	if len(segs) > 0 && segs[0].tid == 0 && ownerTID != 0 {
		headless := true
		for _, r := range segs[0].recs {
			if r.Kind == trace.KindThreadStart {
				headless = false
			}
		}
		if headless && len(segs) == 1 {
			segs[0].tid = ownerTID
		}
	}
	return segs
}

// resolveDAG maps a rebased DAG ID to (module info, mapfile DAG,
// managed flag).
func resolveDAG(s *snap.Snap, maps MapResolver, id uint32) (snap.ModuleInfo, *module.MapDAG, bool, error) {
	mi, rel, ok := s.ModuleForDAG(id)
	if !ok {
		return mi, nil, false, fmt.Errorf("recon: DAG ID %d matches no module range", id)
	}
	mf, ok := maps.ForChecksum(mi.Checksum)
	if !ok {
		return mi, nil, false, fmt.Errorf("recon: no mapfile for module %s (checksum %s)", mi.Name, mi.Checksum)
	}
	d, ok := mf.DAGByID(rel)
	if !ok {
		return mi, nil, false, fmt.Errorf("recon: module %s has no DAG %d", mi.Name, rel)
	}
	return mi, d, mf.Managed, nil
}
