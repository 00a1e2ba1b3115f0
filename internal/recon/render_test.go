package recon

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"traceback/internal/snap"
	"traceback/internal/tbrt"
	"traceback/internal/trace"
)

// renderOracle and renderThreadOracle are the fmt-based renderer the
// append-based one replaced, kept verbatim: the new renderer must
// match them byte for byte.
func renderOracle(w io.Writer, pt *ProcessTrace, opts RenderOptions) {
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
		renderThreadOracle(w, t, opts)
	}
}

func renderThreadOracle(w io.Writer, t *ThreadTrace, opts RenderOptions) {
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
		if e.Depth > 0 {
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

// syntheticThread is a stream of n events cycling every kind, depths
// 0–12, Repeat 0/1/many, faults, notes and calls, syscalls with and
// without a position, and lines 0–11 (some past the end of
// testSource's file, and 0, which no source has).
func syntheticThread(n int) *ThreadTrace {
	t := &ThreadTrace{TID: 7, Truncated: true}
	for i := 0; i < n; i++ {
		e := Event{
			Kind:   EventKind(i % int(EvSyscall+1)),
			Module: "mod",
			File:   []string{"a.mc", "b.mc", ""}[i%3],
			Line:   uint32(i % 12),
			Depth:  i % 13,
			Repeat: []int{0, 1, 41}[i/3%3],
			Fault:  i%5 == 0,
		}
		if i%4 == 0 {
			e.CallTo = "callee"
			e.Note = "call callee"
		} else if i%4 == 1 {
			e.Note = "note " + strconv.Itoa(i)
		}
		if e.Kind == EvSync {
			e.Sync = &trace.Sync{LogicalThread: uint32(i), Seq: uint32(3 * i)}
		}
		t.Events = append(t.Events, e)
	}
	return t
}

// testSource serves a.mc with padded lines (exercising TrimSpace) and
// nothing for any other file.
func testSource(file string) []string {
	if file != "a.mc" {
		return nil
	}
	return []string{"  int main() {", "\tx = 1;  ", "y = 2;", "", " return x; ", "}"}
}

// renderOptionSets are the option combinations every oracle test
// renders under, for a thread of n events.
func renderOptionSets(n int) []RenderOptions {
	var sets []RenderOptions
	for _, max := range []int{0, 1, 5, n - 1} {
		for _, src := range []func(string) []string{nil, testSource} {
			sets = append(sets, RenderOptions{MaxEvents: max, Source: src})
		}
	}
	return sets
}

func TestRenderThreadMatchesOracle(t *testing.T) {
	// Enough events that the output spans several write batches.
	th := syntheticThread(3000)
	seen := map[EventKind]bool{}
	for _, e := range th.Events {
		seen[e.Kind] = true
	}
	for k := EvLine; k <= EvSyscall; k++ {
		if !seen[k] {
			t.Fatalf("synthetic stream lacks kind %s", k)
		}
	}
	for _, opts := range renderOptionSets(len(th.Events)) {
		var got, want bytes.Buffer
		RenderThread(&got, th, opts)
		renderThreadOracle(&want, th, opts)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("max=%d source=%v: output differs from the oracle at byte %d",
				opts.MaxEvents, opts.Source != nil, firstDiff(got.Bytes(), want.Bytes()))
		}
	}
}

// TestRenderMatchesOracleOnCorpus renders every committed snap and
// the benchmark corpus's wrap-full snap both ways.
func TestRenderMatchesOracleOnCorpus(t *testing.T) {
	var pts []*ProcessTrace
	for _, dir := range []string{"../../snaps", "../../snaps/regressions"} {
		maps, _, err := NewMapDir(filepath.Join(dir, "maps"))
		if err != nil {
			t.Fatal(err)
		}
		paths, err := snap.ExpandPaths([]string{dir}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			s, err := snap.LoadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if pt, err := Reconstruct(s, maps); err == nil { // the torn-module-table case fails
				pts = append(pts, pt)
			}
		}
	}
	s, mf := snapAndMap(t, bigModule(512), tbrt.Config{BufferWords: 512, SubBuffers: 4})
	pt, err := Reconstruct(s, NewMapSet(mf))
	if err != nil {
		t.Fatal(err)
	}
	pts = append(pts, pt)
	if len(pts) < 10 {
		t.Fatalf("only %d snaps reconstructed", len(pts))
	}

	src := NewSourceCache("../../examples/quickstart").Lines
	for i, pt := range pts {
		for _, opts := range []RenderOptions{{}, {MaxEvents: 5}, {Source: src}} {
			var got, want bytes.Buffer
			Render(&got, pt, opts)
			renderOracle(&want, pt, opts)
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("snap %d (%s) %+v: output differs from the oracle at byte %d",
					i, pt.Snap.Process, opts, firstDiff(got.Bytes(), want.Bytes()))
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestRenderThreadAllocsConstant: rendering allocates per call, not
// per event (the fmt-based renderer allocated at least once per line).
func TestRenderThreadAllocsConstant(t *testing.T) {
	th := syntheticThread(10_000)
	allocs := testing.AllocsPerRun(20, func() {
		RenderThread(io.Discard, th, RenderOptions{})
	})
	if allocs > 4 {
		t.Errorf("RenderThread of %d events: %.1f allocs per run, want at most 4", len(th.Events), allocs)
	}
}

// TestExpandSizesEventsExactly: a segment with no re-issue merge, no
// exception trim and no collapsed lines allocates exactly the events
// it keeps.
func TestExpandSizesEventsExactly(t *testing.T) {
	s, mf := snapAndMap(t, bigModule(512), tbrt.Config{BufferWords: 512, SubBuffers: 4})
	pt, err := Reconstruct(s, NewMapSet(mf))
	if err != nil {
		t.Fatal(err)
	}
	if len(pt.Threads) == 0 {
		t.Fatal("no threads")
	}
	for _, tt := range pt.Threads {
		if len(tt.Events) == 0 || cap(tt.Events) != len(tt.Events) {
			t.Errorf("thread %d: %d events in a slice of capacity %d", tt.TID, len(tt.Events), cap(tt.Events))
		}
	}
}

// TestEventSize holds the packed Event layout on 64-bit platforms:
// Kind, Fault and Line share one word.
func TestEventSize(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("layout differs on 32-bit GOARCH")
	}
	if got := unsafe.Sizeof(Event{}); got > 136 {
		t.Errorf("unsafe.Sizeof(Event{}) = %d, want at most 136", got)
	}
}
