package recon

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// RenderOptions controls trace rendering.
type RenderOptions struct {
	// Source optionally maps file names to their lines so the trace
	// can show source text next to file:line.
	Source func(file string) []string
	// MaxEvents caps output per thread (0: unlimited).
	MaxEvents int
}

// Render writes a human-readable trace. View selection is
// fault-directed (paper §4.3.3): a hang snap opens with a
// one-line-per-thread summary of what each thread was last doing;
// then every thread's history follows, led by pt.FaultThread() (which
// swaps places with the first thread; the rest keep their order), so
// a faulting snap opens on the faulting line.
func Render(w io.Writer, pt *ProcessTrace, opts RenderOptions) {
	bp := renderBufs.Get().(*[]byte)
	defer putRenderBuf(bp)
	buf := *bp
	s := pt.Snap
	buf = fmt.Appendf(buf, "snap: process %q on %s (pid %d), reason: %s\n",
		s.Process, s.Host, s.PID, s.Reason)
	if pt.Unrecoverable > 0 {
		buf = fmt.Appendf(buf, "note: %d buffer(s) unrecoverable\n", pt.Unrecoverable)
	}

	hang := strings.Contains(s.Reason, "hang")
	if hang {
		buf = append(buf, "-- hang view: last activity per thread --\n"...)
		for _, t := range pt.Threads {
			buf = fmt.Appendf(buf, "thread %d: %s\n", t.TID, lastActivity(t))
		}
		buf = append(buf, '\n')
	}

	order := make([]*ThreadTrace, len(pt.Threads))
	copy(order, pt.Threads)
	lead := pt.FaultThread()
	for i, t := range order {
		if t == lead {
			order[0], order[i] = order[i], order[0]
			break
		}
	}
	for _, t := range order {
		buf = appendThread(w, buf, t, opts)
	}
	w.Write(buf)
	*bp = buf
}

// lastActivity summarizes a thread's newest event (hang view). A
// trailing synchronization marker wins over line events: a blocked
// thread's newest record is the syscall it never returned from.
func lastActivity(t *ThreadTrace) string {
	for i := len(t.Events) - 1; i >= 0; i-- {
		e := &t.Events[i]
		switch e.Kind {
		case EvSyscall:
			return fmt.Sprintf("blocked in %s at %s %s:%d", e.Note, e.Module, e.File, e.Line)
		case EvLine:
			return fmt.Sprintf("%s %s:%d in %s%s", e.Module, e.File, e.Line, e.Func, noteSuffix(e))
		case EvSync:
			return "awaiting RPC (" + e.Note + ")"
		case EvThreadEnd:
			return "exited"
		}
	}
	return "(no recovered history)"
}

func noteSuffix(e *Event) string {
	if e.Note == "" {
		return ""
	}
	return " [" + e.Note + "]"
}

// RenderThread writes one thread's line-by-line history.
func RenderThread(w io.Writer, t *ThreadTrace, opts RenderOptions) {
	bp := renderBufs.Get().(*[]byte)
	defer putRenderBuf(bp)
	*bp = appendThread(w, *bp, t, opts)
	w.Write(*bp)
}

// renderFlushAt is the size of the batches the renderer writes in.
const renderFlushAt = 32 << 10

// renderBufs recycles render buffers: a rendering keeps nothing, so
// it should allocate nothing once warm.
var renderBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, renderFlushAt+4<<10)
	return &b
}}

// putRenderBuf returns a buffer to the pool, dropping one a long line
// grew far past the batch size.
func putRenderBuf(bp *[]byte) {
	if cap(*bp) > 4*renderFlushAt {
		return
	}
	*bp = (*bp)[:0]
	renderBufs.Put(bp)
}

// appendThread appends t's history to buf, writing buf to w and
// emptying it each time it passes renderFlushAt. It returns the
// unwritten remainder.
func appendThread(w io.Writer, buf []byte, t *ThreadTrace, opts RenderOptions) []byte {
	buf = append(buf, "== thread "...)
	buf = strconv.AppendUint(buf, uint64(t.TID), 10)
	buf = append(buf, " ==\n"...)
	if t.Truncated {
		buf = append(buf, "  ... older history overwritten ...\n"...)
	}
	evs := t.Events
	if opts.MaxEvents > 0 && len(evs) > opts.MaxEvents {
		evs = evs[len(evs)-opts.MaxEvents:]
		buf = fmt.Appendf(buf, "  ... (%d earlier events elided) ...\n", len(t.Events)-len(evs))
	}
	for i := range evs {
		buf = appendEvent(buf, &evs[i], opts)
		if len(buf) >= renderFlushAt {
			w.Write(buf)
			buf = buf[:0]
		}
	}
	return buf
}

// appendEvent appends one event's line: the call-hierarchy indent,
// then a kind-specific body. A kind with no rendering appends nothing.
func appendEvent(buf []byte, e *Event, opts RenderOptions) []byte {
	start := len(buf)
	buf = append(buf, "  "...)
	for d := 0; d < e.Depth; d++ {
		buf = append(buf, "| "...)
	}
	switch e.Kind {
	case EvLine:
		if e.Fault {
			buf = append(buf, '>')
		} else {
			buf = append(buf, ' ')
		}
		buf = append(buf, e.Module...)
		buf = append(buf, ' ')
		buf = append(buf, e.File...)
		buf = append(buf, ':')
		buf = strconv.AppendUint(buf, uint64(e.Line), 10)
		if e.Repeat > 0 {
			buf = append(buf, " (x"...)
			buf = strconv.AppendInt(buf, int64(e.Repeat+1), 10)
			buf = append(buf, ')')
		}
		if e.Note != "" {
			buf = append(buf, " ["...)
			buf = append(buf, e.Note...)
			buf = append(buf, ']')
		}
		if opts.Source != nil {
			if lines := opts.Source(e.File); int(e.Line-1) < len(lines) && e.Line >= 1 {
				buf = append(buf, '\t')
				buf = append(buf, strings.TrimSpace(lines[e.Line-1])...)
			}
		}
	case EvException:
		buf = append(buf, "!! "...)
		buf = append(buf, e.Note...)
	case EvExceptionEnd:
		buf = append(buf, ".. "...)
		buf = append(buf, e.Note...)
	case EvSync:
		buf = append(buf, "~~ sync "...)
		buf = append(buf, e.Note...)
		buf = append(buf, " (logical thread "...)
		buf = strconv.AppendUint(buf, uint64(e.Sync.LogicalThread), 10)
		buf = append(buf, " seq "...)
		buf = strconv.AppendUint(buf, uint64(e.Sync.Seq), 10)
		buf = append(buf, ')')
	case EvSnapMark:
		buf = append(buf, "** "...)
		buf = append(buf, e.Note...)
	case EvThreadStart:
		buf = append(buf, "-- thread start --"...)
	case EvThreadEnd:
		buf = append(buf, "-- thread end --"...)
	case EvBadDAG:
		buf = append(buf, "?? "...)
		buf = append(buf, e.Note...)
	case EvSyscall:
		buf = append(buf, "~  "...)
		buf = append(buf, e.Note...)
		if e.File != "" {
			buf = append(buf, " ("...)
			buf = append(buf, e.File...)
			buf = append(buf, ':')
			buf = strconv.AppendUint(buf, uint64(e.Line), 10)
			buf = append(buf, ')')
		}
	default:
		return buf[:start]
	}
	return append(buf, '\n')
}

// RenderInterleaved writes the merged multi-thread view.
func RenderInterleaved(w io.Writer, pt *ProcessTrace) {
	for _, me := range Interleave(pt.Threads) {
		e := me.Ev
		switch e.Kind {
		case EvLine:
			fmt.Fprintf(w, "[t%d] %s %s:%d%s\n", me.TID, e.Module, e.File, e.Line, noteSuffix(e))
		default:
			fmt.Fprintf(w, "[t%d] <%s> %s\n", me.TID, e.Kind, e.Note)
		}
	}
}
