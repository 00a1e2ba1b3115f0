package recon

import (
	"traceback/internal/isa"
	"traceback/internal/module"
	"traceback/internal/snap"
	"traceback/internal/trace"
	"traceback/internal/vm"
)

// ExpandPath decodes a DAG record's path bits into the executed block
// sequence (indexes into d.Blocks), paper §4.2. Blocks are stored in
// topological order, so walking greedily to the topologically
// earliest marked successor recovers the unique simple path the run
// took; a single bit-less successor is implied (its predecessors all
// branch unconditionally).
func ExpandPath(d *module.MapDAG, bits trace.Word) []int {
	return appendPath(nil, d, bits)
}

// appendPath is ExpandPath appending into dst, so the expander can
// reuse one scratch slice across records.
func appendPath(dst []int, d *module.MapDAG, bits trace.Word) []int {
	dst = append(dst, 0)
	cur := 0
	for {
		b := &d.Blocks[cur]
		next := -1
		if len(b.Succs) == 1 && d.Blocks[b.Succs[0]].Bit < 0 {
			next = b.Succs[0]
		} else {
			for _, s := range b.Succs { // ascending topological order
				sb := &d.Blocks[s]
				if sb.Bit >= 0 && bits&(1<<uint(sb.Bit)) != 0 {
					next = s
					break
				}
			}
		}
		if next < 0 || next <= cur {
			break
		}
		dst = append(dst, next)
		cur = next
	}
	return dst
}

// appendManaged decodes a managed DAG record into dst: the header
// block, then every block whose line-boundary bit is set, in code
// order (paper §2.4: line accuracy is all Java reconstruction needs).
func appendManaged(dst []int, d *module.MapDAG, bits trace.Word) []int {
	dst = append(dst, 0)
	for i := 1; i < len(d.Blocks); i++ {
		b := &d.Blocks[i]
		if b.Bit >= 0 && bits&(1<<uint(b.Bit)) != 0 {
			dst = append(dst, i)
		}
	}
	return dst
}

// appendExpansion expands a DAG record by the rule its module was
// instrumented under.
func appendExpansion(dst []int, d *module.MapDAG, bits trace.Word, managed bool) []int {
	if managed {
		return appendManaged(dst, d, bits)
	}
	return appendPath(dst, d, bits)
}

// expander turns one thread segment's records into events. All its
// state is per-segment; the snap and resolver are only read, so
// segments expand safely in parallel.
type expander struct {
	s    *snap.Snap
	maps MapResolver
	tt   *ThreadTrace

	depth     int
	funcStack []string

	// In-progress DAG state for re-issue merging.
	lastDAGID   uint32
	lastBits    trace.Word
	lastDAG     *module.MapDAG
	lastManaged bool
	lastMI      snap.ModuleInfo
	lastEmitted int // blocks of lastDAG already emitted
	havePending bool
	sawReissue  bool
	runID       int

	ts        uint64
	anchorSeq int

	path []int // scratch for the current record's block sequence
}

func expandSegment(s *snap.Snap, maps MapResolver, seg segment) (*ThreadTrace, error) {
	ex := &expander{s: s, maps: maps, tt: &ThreadTrace{TID: seg.tid}}
	ex.tt.Events = make([]Event, 0, ex.countEvents(seg.recs))
	for _, r := range seg.recs {
		if err := ex.record(r); err != nil {
			return nil, err
		}
	}
	return ex.tt, nil
}

// countEvents bounds the events a segment expands to: every line of
// every DAG record's expanded path, plus one for each other record,
// so expandSegment allocates its events once. Resolve errors count
// nothing here; the real pass reports them.
func (ex *expander) countEvents(recs []trace.Record) int {
	n := 0
	for _, r := range recs {
		if r.Kind != trace.KindNone || r.BadDAG() {
			n++
			continue
		}
		_, d, managed, err := resolveDAG(ex.s, ex.maps, r.DAGID)
		if err != nil {
			continue
		}
		ex.path = appendExpansion(ex.path[:0], d, r.Bits, managed)
		for _, bi := range ex.path {
			n += len(d.Blocks[bi].Lines)
		}
	}
	return n
}

func (ex *expander) anchor(ts uint64) {
	if ts != 0 {
		ex.ts = ts
		ex.anchorSeq = 0
	}
}

func (ex *expander) emit(e Event) {
	e.TS = ex.ts
	e.AnchorSeq = ex.anchorSeq
	ex.anchorSeq++
	e.Depth = ex.depth
	if len(ex.funcStack) > 0 && e.Func == "" {
		e.Func = ex.funcStack[len(ex.funcStack)-1]
	}
	ex.tt.Events = append(ex.tt.Events, e)
}

func (ex *expander) record(r trace.Record) error {
	switch r.Kind {
	case trace.KindNone:
		if r.BadDAG() {
			ex.emit(Event{Kind: EvBadDAG, Note: "module untraceable: DAG ID space exhausted"})
			ex.havePending = false
			return nil
		}
		if ex.sawReissue && ex.havePending && r.DAGID == ex.lastDAGID {
			// Mid-run re-issue: merge bits and continue the same run.
			ex.sawReissue = false
			ex.lastBits |= r.Bits
			ex.emitPending()
			return nil
		}
		ex.sawReissue = false
		mi, d, managed, err := resolveDAG(ex.s, ex.maps, r.DAGID)
		if err != nil {
			return err
		}
		ex.lastDAGID, ex.lastBits, ex.lastDAG, ex.lastMI = r.DAGID, r.Bits, d, mi
		ex.lastManaged = managed
		ex.lastEmitted = 0
		ex.havePending = true
		ex.runID++
		ex.emitPending()
	case trace.KindReissue:
		ex.sawReissue = true
	case trace.KindTimestamp:
		if ts, err := trace.DecodeTS(r); err == nil {
			ex.anchor(ts)
		}
	case trace.KindSyscallMark:
		m, err := trace.DecodeSyscallMark(r)
		if err != nil {
			return err
		}
		ex.anchor(m.TS)
		e := Event{Kind: EvSyscall, Note: isa.SysName(int(m.Num))}
		if mod, file, line, ok := lineForAddr(ex.s, ex.maps, m.Addr); ok {
			e.Module, e.File, e.Line = mod, file, line
		}
		ex.emit(e)
	case trace.KindSync:
		sy, err := trace.DecodeSync(r)
		if err != nil {
			return err
		}
		ex.anchor(sy.TS)
		cp := sy
		ex.emit(Event{Kind: EvSync, Sync: &cp,
			Note: sy.Point.String()})
	case trace.KindException:
		e, err := trace.DecodeException(r)
		if err != nil {
			return err
		}
		ex.anchor(e.TS)
		ex.trimAt(e.Addr)
		ex.emit(Event{Kind: EvException, Note: "exception " + vm.SignalName(int(e.Code))})
		ex.tt.Faulted = true
	case trace.KindExceptionEnd:
		if ts, err := trace.DecodeTS(r); err == nil {
			ex.anchor(ts)
		}
		ex.emit(Event{Kind: EvExceptionEnd, Note: "control resumed after exception"})
	case trace.KindSnapMark:
		if ts, err := trace.DecodeTS(r); err == nil {
			ex.anchor(ts)
		}
		ex.emit(Event{Kind: EvSnapMark, Note: "snap taken"})
	case trace.KindThreadStart:
		ev, err := trace.DecodeThreadEvent(r)
		if err == nil {
			ex.anchor(ev.TS)
			ex.emit(Event{Kind: EvThreadStart})
		}
	case trace.KindThreadEnd:
		ev, err := trace.DecodeThreadEvent(r)
		if err == nil {
			ex.anchor(ev.TS)
			ex.emit(Event{Kind: EvThreadEnd})
		}
	}
	return nil
}

// emitPending expands the current DAG record's path and emits the
// blocks not yet emitted (a re-issued record extends the previously
// emitted prefix).
func (ex *expander) emitPending() {
	path := ex.expand()
	for _, bi := range path[ex.lastEmitted:] {
		ex.emitBlock(&ex.lastDAG.Blocks[bi])
	}
	ex.lastEmitted = len(path)
}

// expand expands the current DAG record into the expander's scratch
// path, valid until the next call.
func (ex *expander) expand() []int {
	ex.path = appendExpansion(ex.path[:0], ex.lastDAG, ex.lastBits, ex.lastManaged)
	return ex.path
}

// emitBlock expands one block into line events with call-hierarchy
// bookkeeping (paper §4.2, §4.3.1).
func (ex *expander) emitBlock(b *module.MapBlock) {
	if b.FuncEntry != "" {
		ex.funcStack = append(ex.funcStack, b.FuncEntry)
		ex.depth++
	}
	for i, ls := range b.Lines {
		e := Event{
			Kind:   EvLine,
			Module: ex.lastMI.Name,
			File:   ls.File,
			Line:   ls.Line,
		}
		if b.Call != module.CallNone && i == len(b.Lines)-1 {
			e.CallTo = b.CallTarget
			e.Note = "call " + b.CallTarget
		}
		ex.emitLine(e)
	}
	if b.FuncExit {
		if len(ex.funcStack) > 0 {
			ex.funcStack = ex.funcStack[:len(ex.funcStack)-1]
		}
		if ex.depth > 0 {
			ex.depth--
		}
	}
}

// emitLine merges consecutive duplicates (paper §4.2): a repetition
// within one record expansion is redundancy from instrumentation
// splitting an expression across blocks and is collapsed silently; a
// repetition across records is a real re-execution and bumps Repeat.
func (ex *expander) emitLine(e Event) {
	e.runID = ex.runID
	evs := ex.tt.Events
	if n := len(evs); n > 0 {
		last := &evs[n-1]
		if last.Kind == EvLine && last.Module == e.Module &&
			last.File == e.File && last.Line == e.Line && last.Depth == ex.depth {
			if e.CallTo != "" && last.CallTo == "" {
				last.CallTo = e.CallTo
				last.Note = e.Note
			}
			if last.runID == e.runID {
				return // redundancy within one expansion: collapse
			}
			last.runID = e.runID
			last.Repeat++
			return
		}
	}
	ex.emit(e)
}

// trimAt cuts the most recent block's lines back to the exception
// address (paper §4.2): events past the faulting line are removed and
// the faulting line is marked. An address outside the current module
// (an uninstrumented callee) leaves the trace at the call line.
func (ex *expander) trimAt(addr uint64) {
	if !ex.havePending || ex.lastDAG == nil {
		return
	}
	mi, ok := ex.s.ModuleForAddr(addr)
	if !ok || mi.Checksum != ex.lastMI.Checksum {
		// Fault in an uninstrumented callee: the last emitted line is
		// the call that led there (paper §2.2's return-point probes
		// guarantee this attribution).
		ex.markLastLineFault()
		return
	}
	rel := uint32(addr - uint64(mi.CodeBase))
	// Find the faulting line in the current run's blocks and drop any
	// events the expansion optimistically emitted past it.
	path := ex.expand()
	var cut *module.LineSpan
	for _, bi := range path {
		b := &ex.lastDAG.Blocks[bi]
		if rel < b.Start || rel >= b.End {
			continue
		}
		for i := range b.Lines {
			ls := &b.Lines[i]
			if rel >= ls.Start && rel < ls.End {
				cut = ls
				break
			}
		}
	}
	if cut == nil {
		ex.markLastLineFault()
		return
	}
	// Remove line events after the faulting line. Non-line events
	// (sync and syscall markers) are real and stay put.
	evs := ex.tt.Events
	cutAt := -1
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Kind != EvLine {
			continue
		}
		if evs[i].File == cut.File && evs[i].Line == cut.Line {
			break
		}
		cutAt = i
	}
	if cutAt >= 0 {
		kept := evs[:cutAt]
		for _, e := range evs[cutAt:] {
			if e.Kind != EvLine {
				kept = append(kept, e)
			}
		}
		ex.tt.Events = kept
	}
	ex.markLastLineFault()
}

func (ex *expander) markLastLineFault() {
	for i := len(ex.tt.Events) - 1; i >= 0; i-- {
		if ex.tt.Events[i].Kind == EvLine {
			ex.tt.Events[i].Fault = true
			return
		}
	}
}
