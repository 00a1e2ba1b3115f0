package recon_test

import (
	"bytes"
	"strings"
	"testing"

	"traceback/internal/archive"
	"traceback/internal/recon"
	"traceback/internal/snap"
)

// TestFaultThreadLeadsRenderAndSignature: the trigger thread wins over
// an earlier faulted thread, and the display and the crash signature
// agree on it because both ask FaultThread.
func TestFaultThreadLeadsRenderAndSignature(t *testing.T) {
	line := func(file string, n uint32) recon.Event {
		return recon.Event{Kind: recon.EvLine, Module: "app", File: file, Line: n, Func: "f"}
	}
	pt := &recon.ProcessTrace{
		Snap: &snap.Snap{Process: "app", Host: "h", PID: 1, Reason: "exception SIGSEGV", TriggerTID: 3},
		Threads: []*recon.ThreadTrace{
			{TID: 1},
			{TID: 2, Faulted: true, Events: []recon.Event{line("two.c", 7)}},
			{TID: 3, Events: []recon.Event{line("three.c", 4), line("three.c", 5)}},
		},
	}
	if got := pt.FaultThread(); got == nil || got.TID != 3 {
		t.Fatalf("FaultThread = %+v, want thread 3", got)
	}

	var out bytes.Buffer
	recon.Render(&out, pt, recon.RenderOptions{})
	var heads []string
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(l, "== thread ") {
			heads = append(heads, l)
		}
	}
	want := []string{"== thread 3 ==", "== thread 2 ==", "== thread 1 =="}
	if strings.Join(heads, "|") != strings.Join(want, "|") {
		t.Errorf("Render thread order = %q, want %q (lead swapped to the front, rest in place)", heads, want)
	}

	fv, ok := archive.FaultViewOf(pt)
	if !ok || len(fv.Frames) == 0 || fv.Frames[0].File != "three.c" || fv.Frames[0].Line != 5 {
		t.Errorf("FaultViewOf = %+v (ok %v), want frames from thread 3 ending at three.c:5", fv, ok)
	}

	// No trigger history: the first faulted thread with history leads,
	// then the first thread with any.
	pt.Snap.TriggerTID = 1
	if got := pt.FaultThread(); got.TID != 2 {
		t.Errorf("trigger without history: FaultThread = thread %d, want 2", got.TID)
	}
	pt.Threads[1].Faulted = false
	if got := pt.FaultThread(); got.TID != 2 {
		t.Errorf("no faulted thread: FaultThread = thread %d, want the first with history (2)", got.TID)
	}
}
