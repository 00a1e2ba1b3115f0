package recon

import (
	"fmt"
	"io"
	"strings"
)

// RenderOptions controls trace rendering.
type RenderOptions struct {
	// Source optionally maps file names to their lines so the trace
	// can show source text next to file:line.
	Source func(file string) []string
	// MaxEvents caps output per thread (0: unlimited).
	MaxEvents int
	// Flat disables call-hierarchy indentation.
	Flat bool
}

// Render writes a human-readable trace. View selection is
// fault-directed (paper §4.3.3): a hang snap opens with a
// one-line-per-thread summary of what each thread was last doing;
// then every thread's history follows, led by pt.FaultThread() (which
// swaps places with the first thread; the rest keep their order), so
// a faulting snap opens on the faulting line.
func Render(w io.Writer, pt *ProcessTrace, opts RenderOptions) {
	s := pt.Snap
	fmt.Fprintf(w, "snap: process %q on %s (pid %d), reason: %s\n",
		s.Process, s.Host, s.PID, s.Reason)
	if pt.Unrecoverable > 0 {
		fmt.Fprintf(w, "note: %d buffer(s) unrecoverable\n", pt.Unrecoverable)
	}

	hang := strings.Contains(s.Reason, "hang")
	if hang {
		fmt.Fprintf(w, "-- hang view: last activity per thread --\n")
		for _, t := range pt.Threads {
			fmt.Fprintf(w, "thread %d: %s\n", t.TID, lastActivity(t))
		}
		fmt.Fprintln(w)
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
		RenderThread(w, t, opts)
	}
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
	fmt.Fprintf(w, "== thread %d ==\n", t.TID)
	if t.Truncated {
		fmt.Fprintf(w, "  ... older history overwritten ...\n")
	}
	evs := t.Events
	if opts.MaxEvents > 0 && len(evs) > opts.MaxEvents {
		evs = evs[len(evs)-opts.MaxEvents:]
		fmt.Fprintf(w, "  ... (%d earlier events elided) ...\n", len(t.Events)-len(evs))
	}
	for i := range evs {
		e := &evs[i]
		indent := "  "
		if !opts.Flat && e.Depth > 0 {
			indent += strings.Repeat("| ", e.Depth)
		}
		switch e.Kind {
		case EvLine:
			mark := " "
			if e.Fault {
				mark = ">"
			}
			rep := ""
			if e.Repeat > 0 {
				rep = fmt.Sprintf(" (x%d)", e.Repeat+1)
			}
			src := ""
			if opts.Source != nil {
				if lines := opts.Source(e.File); int(e.Line-1) < len(lines) && e.Line >= 1 {
					src = "\t" + strings.TrimSpace(lines[e.Line-1])
				}
			}
			fmt.Fprintf(w, "%s%s%s %s:%d%s%s%s\n",
				indent, mark, e.Module, e.File, e.Line, rep, noteSuffix(e), src)
		case EvException:
			fmt.Fprintf(w, "%s!! %s\n", indent, e.Note)
		case EvExceptionEnd:
			fmt.Fprintf(w, "%s.. %s\n", indent, e.Note)
		case EvSync:
			fmt.Fprintf(w, "%s~~ sync %s (logical thread %d seq %d)\n",
				indent, e.Note, e.Sync.LogicalThread, e.Sync.Seq)
		case EvSnapMark:
			fmt.Fprintf(w, "%s** %s\n", indent, e.Note)
		case EvThreadStart:
			fmt.Fprintf(w, "%s-- thread start --\n", indent)
		case EvThreadEnd:
			fmt.Fprintf(w, "%s-- thread end --\n", indent)
		case EvBadDAG:
			fmt.Fprintf(w, "%s?? %s\n", indent, e.Note)
		case EvSyscall:
			if e.File != "" {
				fmt.Fprintf(w, "%s~  %s (%s:%d)\n", indent, e.Note, e.File, e.Line)
			} else {
				fmt.Fprintf(w, "%s~  %s\n", indent, e.Note)
			}
		}
	}
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
