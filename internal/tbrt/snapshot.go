package tbrt

import (
	"fmt"
	"time"

	"traceback/internal/snap"
	"traceback/internal/trace"
)

// SnapReason describes a snap trigger.
type SnapReason struct {
	Kind   string // "exception", "api", "hang", "external", "group"
	Detail string
	TID    int
	Signal int
	Addr   uint64
}

func (r SnapReason) String() string {
	if r.Detail != "" {
		return r.Kind + " " + r.Detail
	}
	return r.Kind
}

// suppressKey identifies "the same snap trigger" for suppression: the
// same exception from the same program location (paper §3.6.2).
func (r SnapReason) suppressKey() string {
	return fmt.Sprintf("%s/%d/%d", r.Kind, r.Signal, r.Addr)
}

// TakeSnap collects the buffers and metadata into a snap, under
// suppression control. In the deterministic VM all other threads are
// implicitly suspended while host code runs, giving the globally
// consistent picture the paper obtains by suspending threads.
// Returns nil when suppressed.
func (rt *Runtime) TakeSnap(reason SnapReason) *snap.Snap {
	key := reason.suppressKey()
	rt.suppress[key]++
	if rt.suppress[key] > rt.cfg.Policy.MaxRepeat {
		return nil
	}
	// Annotate the triggering thread's trace.
	if reason.TID != 0 {
		if t := rt.proc.Threads[reason.TID]; t != nil {
			rt.bufs.AppendEvent(t.TID, rt.cursor(t), trace.AppendSnapMark(nil, rt.now()))
		}
	}
	s := rt.buildSnap(reason)
	rt.snaps = append(rt.snaps, s)
	if rt.cfg.SnapSink != nil {
		rt.cfg.SnapSink(s)
	}
	return s
}

// PolicyHang reports whether the policy allows hang-triggered snaps
// (consulted by the service process).
func (rt *Runtime) PolicyHang() bool { return rt.cfg.Policy.Hang }

// PostMortemSnap builds a snap from a process that died abruptly
// (kill -9): everything is read back out of the process's memory —
// the "buffers reside in memory mapped files, so they can be easily
// copied by another process" path (paper §3.1). No suppression.
func (rt *Runtime) PostMortemSnap() *snap.Snap {
	s := rt.buildSnap(SnapReason{Kind: "external", Detail: "post-mortem"})
	rt.snaps = append(rt.snaps, s)
	if rt.cfg.SnapSink != nil {
		rt.cfg.SnapSink(s)
	}
	return s
}

// buildSnap assembles the snap and records the host-side build
// latency and captured trace volume (host wall time only — the VM
// clock is never charged, so instrumenting the snap path cannot
// perturb the paper's cycle ratios).
func (rt *Runtime) buildSnap(reason SnapReason) *snap.Snap {
	t0 := time.Now()
	defer func() { rt.met.snapNanos.Observe(uint64(time.Since(t0))) }()
	rt.met.snaps.Inc()
	rt.event("snap", reason.String())
	p := rt.proc
	s := &snap.Snap{
		Host:       p.Machine.Name,
		Process:    p.Name,
		PID:        p.PID,
		RuntimeID:  rt.ID,
		Reason:     reason.String(),
		TriggerTID: uint32(reason.TID),
		Signal:     reason.Signal,
		Time:       p.Machine.Timestamp(),
	}
	for _, li := range rt.modules {
		lm := li.lm
		mi := snap.ModuleInfo{
			Name:          lm.Mod.Name,
			Checksum:      lm.Mod.ChecksumHex(),
			ActualDAGBase: lm.DAGBase,
			DAGCount:      lm.Mod.DAGCount,
			CodeBase:      lm.CodeBase,
			CodeLen:       uint32(len(lm.Mod.Code)),
			BadDAG:        li.badDAG,
		}
		// Memory dump of the data segment (paper §3.6: snaps may
		// include a memory dump for variable display).
		if size := uint64(len(lm.Mod.Data)) + uint64(lm.Mod.BSS); size > 0 {
			if b, ok := p.ReadBytes(uint64(lm.DataBase), size); ok {
				mi.DataDump = b
			}
		}
		s.Modules = append(s.Modules, mi)
	}
	bufs, words := rt.bufs.Dump()
	s.Buffers = bufs
	rt.met.snapWords.Observe(uint64(words))
	return s
}
