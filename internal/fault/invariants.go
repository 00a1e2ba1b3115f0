package fault

import (
	"fmt"
	"sort"

	"traceback/internal/recon"
	"traceback/internal/snap"
	"traceback/internal/trace"
)

// Violation is one invariant failure.
type Violation struct {
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

// Invariant names.
const (
	InvTornRecords = "no-torn-records"
	InvSyncCausal  = "sync-causal"
	InvFaultLine   = "fault-line"
	InvWrap        = "wrap-exercised"
	InvNoSnap      = "snap-produced"
	InvReplay      = "replay-identical"
)

// checkTrial runs every per-trial invariant over a trial's harvest
// and records violations on the report row.
func (c *Campaign) checkTrial(tr *TrialReport, snaps []*snap.Snap, ms *recon.MapSet, wraps int) {
	violate := func(inv, detail string) {
		tr.Violations = append(tr.Violations, Violation{Invariant: inv, Detail: detail})
		c.met.violations.Inc()
		c.rec.Record(0, "fault-violation", inv+": "+detail)
	}

	if len(snaps) == 0 {
		violate(InvNoSnap, "trial produced no snap")
		return
	}

	// Invariant: no torn records — every snap reconstructs, even
	// after abrupt termination (sub-buffer commit points bound loss).
	byIdx := make([]*recon.ProcessTrace, len(snaps))
	var procs []*recon.ProcessTrace
	truncated := false
	for i, s := range snaps {
		pt, err := recon.Reconstruct(s, ms)
		if err != nil {
			violate(InvTornRecords, fmt.Sprintf("snap %d (%s/%s): %v", i, s.Process, s.Reason, err))
			continue
		}
		byIdx[i] = pt
		procs = append(procs, pt)
		for _, tt := range pt.Threads {
			tr.Events += len(tt.Events)
			if tt.Truncated {
				truncated = true
			}
		}
	}
	tr.Truncated = truncated

	// Invariant: causal SYNC order across machines.
	for _, v := range checkSyncCausal(procs, truncated) {
		violate(InvSyncCausal, v)
	}

	// Invariant: the faulting (or last-executed) block/line resolves.
	tr.FaultLines = faultLines(procs)
	if len(tr.FaultLines) == 0 {
		if last := lastLines(procs); len(last) == 0 {
			violate(InvFaultLine, "no faulting or last-executed line resolved in any snap")
		} else {
			tr.FaultLines = last
		}
	}
	// A snap triggered by an exception must pinpoint its fault line,
	// not merely some thread's last activity.
	for i, s := range snaps {
		if len(s.Reason) >= 9 && s.Reason[:9] == "exception" && byIdx[i] != nil {
			if !hasFaultEvent(byIdx[i]) {
				violate(InvFaultLine, fmt.Sprintf("snap %d (%s): exception snap with no resolvable fault line", i, s.Reason))
			}
		}
	}

	// Invariant (wrap trials): the tiny buffers actually wrapped, so
	// the truncation-recovery path was exercised, and the fault line
	// still resolved despite the lost history.
	if tr.Kind == KindWrap && wraps == 0 && !truncated {
		violate(InvWrap, "tiny-buffer trial saw no wrap and no truncated thread")
	}
}

// checkSyncCausal verifies SYNC causality over a trial's traces:
// per-thread, each logical thread's sequence numbers never regress
// (exact repeats are legal: duplicated deliveries); across threads,
// every received sequence number was sent by the logical-thread peer
// (skipped when history wrapped away — the send may be lost).
func checkSyncCausal(procs []*recon.ProcessTrace, truncated bool) []string {
	var out []string
	type sendKey struct {
		key   recon.LogicalKey
		point trace.SyncPoint
		seq   uint32
	}
	sends := map[sendKey]bool{}
	type recvAt struct {
		key  sendKey
		desc string
	}
	var recvs []recvAt

	for _, pt := range procs {
		for _, tt := range pt.Threads {
			last := map[recon.LogicalKey]uint32{}
			seen := map[recon.LogicalKey]map[uint32]bool{}
			for _, e := range tt.Events {
				if e.Kind != recon.EvSync || e.Sync == nil {
					continue
				}
				s := e.Sync
				k := recon.LogicalKey{RuntimeID: s.RuntimeID, LogicalThread: s.LogicalThread}
				// A regression to a never-seen sequence is a causality
				// break; regressing to an already-seen one is a
				// re-delivery (injected duplication) and legal.
				if seen[k] != nil && s.Seq < last[k] && !seen[k][s.Seq] {
					out = append(out, fmt.Sprintf("%s/%s t%d: logical %d/%d seq %d after %d",
						pt.Snap.Host, pt.Snap.Process, tt.TID, s.RuntimeID, s.LogicalThread, s.Seq, last[k]))
				}
				if seen[k] == nil {
					seen[k] = map[uint32]bool{}
				}
				seen[k][s.Seq] = true
				last[k] = s.Seq
				switch s.Point {
				case trace.SyncCallSend, trace.SyncReplySend:
					sends[sendKey{k, s.Point, s.Seq}] = true
				case trace.SyncCallRecv:
					recvs = append(recvs, recvAt{sendKey{k, trace.SyncCallSend, s.Seq - 1},
						fmt.Sprintf("%s t%d call-recv seq %d", pt.Snap.Process, tt.TID, s.Seq)})
				case trace.SyncReplyRecv:
					recvs = append(recvs, recvAt{sendKey{k, trace.SyncReplySend, s.Seq - 1},
						fmt.Sprintf("%s t%d reply-recv seq %d", pt.Snap.Process, tt.TID, s.Seq)})
				}
			}
		}
	}
	if !truncated {
		for _, r := range recvs {
			if !sends[r.key] {
				out = append(out, r.desc+": no matching send in any peer trace")
			}
		}
	}
	sort.Strings(out)
	return out
}

// hasFaultEvent reports whether any thread's history ends at a
// resolved fault line.
func hasFaultEvent(pt *recon.ProcessTrace) bool {
	for _, tt := range pt.Threads {
		if !tt.Faulted {
			continue
		}
		for i := len(tt.Events) - 1; i >= 0; i-- {
			e := &tt.Events[i]
			if e.Fault && e.File != "" {
				return true
			}
		}
	}
	return false
}

// faultLines collects the resolved fault lines of faulted threads
// ("file:line"), sorted and deduplicated.
func faultLines(procs []*recon.ProcessTrace) []string {
	set := map[string]bool{}
	for _, pt := range procs {
		for _, tt := range pt.Threads {
			if !tt.Faulted {
				continue
			}
			for i := len(tt.Events) - 1; i >= 0; i-- {
				e := &tt.Events[i]
				if e.Fault && e.File != "" {
					set[fmt.Sprintf("%s:%d", e.File, e.Line)] = true
					break
				}
			}
		}
	}
	return sortedKeys(set)
}

// lastLines collects each thread's last executed source line — the
// identification a kill -9 or hang diagnosis rests on.
func lastLines(procs []*recon.ProcessTrace) []string {
	set := map[string]bool{}
	for _, pt := range procs {
		for _, tt := range pt.Threads {
			for i := len(tt.Events) - 1; i >= 0; i-- {
				e := &tt.Events[i]
				if e.Kind == recon.EvLine && e.File != "" {
					set[fmt.Sprintf("%s:%d", e.File, e.Line)] = true
					break
				}
			}
		}
	}
	return sortedKeys(set)
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
