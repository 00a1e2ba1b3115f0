package recon

import (
	"strings"
	"testing"

	"traceback/internal/trace"
)

func twoThreads() []*ThreadTrace {
	t1 := &ThreadTrace{TID: 1, Events: []Event{
		{Kind: EvLine, Module: "m", File: "a.mc", Line: 1, TS: 10},
		{Kind: EvLine, Module: "m", File: "a.mc", Line: 2, TS: 10, AnchorSeq: 1},
		{Kind: EvLine, Module: "m", File: "a.mc", Line: 3, TS: 50},
	}}
	t2 := &ThreadTrace{TID: 2, Events: []Event{
		{Kind: EvLine, Module: "m", File: "a.mc", Line: 9, TS: 30},
		{Kind: EvSync, Note: "call-send", TS: 60, Sync: &dummySync},
	}}
	return []*ThreadTrace{t1, t2}
}

func TestRenderInterleavedOutput(t *testing.T) {
	pt := &ProcessTrace{Threads: twoThreads()}
	var sb strings.Builder
	RenderInterleaved(&sb, pt)
	out := sb.String()
	// Ordered by anchors: t1 lines at 10, t2 line at 30, t1 line at
	// 50, t2 sync at 60.
	i1 := strings.Index(out, "a.mc:1")
	i9 := strings.Index(out, "a.mc:9")
	i3 := strings.Index(out, "a.mc:3")
	isync := strings.Index(out, "call-send")
	if !(i1 < i9 && i9 < i3 && i3 < isync) {
		t.Errorf("interleaved order wrong:\n%s", out)
	}
	if !strings.Contains(out, "[t1]") || !strings.Contains(out, "[t2]") {
		t.Errorf("thread tags missing:\n%s", out)
	}
}

func TestViewEmptyTrace(t *testing.T) {
	v := NewView(&ThreadTrace{TID: 1})
	if v.Current() != nil {
		t.Error("empty view has a current event")
	}
	if v.StepBack() || v.StepBackOut() {
		t.Error("stepping succeeded on an empty trace")
	}
}

func TestViewBoundaries(t *testing.T) {
	tt := &ThreadTrace{TID: 1, Events: []Event{
		{Kind: EvLine, Line: 1, Depth: 1},
		{Kind: EvLine, Line: 2, Depth: 2},
		{Kind: EvLine, Line: 3, Depth: 1},
	}}
	v := NewView(tt)
	if v.Current().Line != 3 {
		t.Error("view does not start at the newest event")
	}
	if !v.StepBack() || v.Current().Line != 2 {
		t.Errorf("step-back landed at %+v", v.Current())
	}
	// StepBackOut from depth 2 reaches line 1.
	if !v.StepBackOut() || v.Current().Line != 1 {
		t.Errorf("step-back-out landed at %+v", v.Current())
	}
	if v.StepBack() || v.StepBackOut() {
		t.Error("stepped before the beginning")
	}
}

var dummySync = trace.Sync{Point: trace.SyncCallSend, RuntimeID: 1, LogicalThread: 1, TS: 60}
