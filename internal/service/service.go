// Package service implements the per-machine TraceBack service
// process (paper §3.6.1, §3.7.5): runtimes register with it, it
// exchanges heartbeats to detect hung processes, it triggers external
// snaps on request (including for processes that died abruptly), and
// it coordinates group snaps across related processes — locally and
// across machines.
package service

import (
	"fmt"

	"traceback/internal/snap"
	"traceback/internal/tbrt"
	"traceback/internal/telemetry"
	"traceback/internal/verify"
	"traceback/internal/vm"
)

// Service is one machine's TraceBack service process.
type Service struct {
	machine *vm.Machine
	// HangCycles is how long a process may go without executing an
	// instruction before the STATUS check declares it hung.
	HangCycles uint64

	runtimes []*tbrt.Runtime
	peers    []*Service

	// groups lists process-name groups that snap together.
	groups [][]string

	// Snaps collects snaps the service triggered.
	Snaps []*snap.Snap

	// forward, when set, receives every service-triggered snap (hang,
	// external, group); see SetForward.
	forward func(*snap.Snap) error

	// Self-telemetry (svc_ and verify_ prefixes) plus a flight
	// recorder for heartbeat misses and verification outcomes.
	reg         *telemetry.Registry
	rec         *telemetry.Recorder
	verify      *verify.Metrics
	heartbeats  *telemetry.Counter
	hangs       *telemetry.Counter
	externals   *telemetry.Counter
	groupSnaps  *telemetry.Counter
	forwarded   *telemetry.Counter
	forwardErrs *telemetry.Counter
}

// New creates the machine's service process.
func New(m *vm.Machine, hangCycles uint64) *Service {
	if hangCycles == 0 {
		hangCycles = 500_000
	}
	reg := telemetry.New()
	s := &Service{machine: m, HangCycles: hangCycles, reg: reg, rec: reg.Recorder(256)}
	s.heartbeats = reg.Counter("svc_heartbeats_total", "STATUS sweeps over registered runtimes")
	s.hangs = reg.Counter("svc_hangs_total", "processes declared hung by heartbeat timeout")
	s.externals = reg.Counter("svc_external_snaps_total", "external snaps triggered by name")
	s.groupSnaps = reg.Counter("svc_group_snaps_total", "group-propagated snaps taken")
	s.forwarded = reg.Counter("svc_forwarded_total", "service-triggered snaps handed to the collection plane")
	s.forwardErrs = reg.Counter("svc_forward_errors_total", "collection-plane forwards that failed")
	s.verify = verify.NewMetrics(reg)
	return s
}

// SetForward routes every snap the service triggers into the fleet
// collection plane: a fwd that calls collect.Spool(dir, s) lands it in
// the local spool for tbagent to upload to tbcollectd. A forward
// failure is counted and flight-recorded but never blocks the snap —
// it stays in Snaps regardless.
func (s *Service) SetForward(fwd func(*snap.Snap) error) {
	s.forward = fwd
}

// collect is the single funnel for service-triggered snaps: remember
// it, and forward it to the collection plane when one is wired.
func (s *Service) collect(sn *snap.Snap) {
	if sn == nil {
		return
	}
	s.Snaps = append(s.Snaps, sn)
	if s.forward != nil {
		if err := s.forward(sn); err != nil {
			s.forwardErrs.Inc()
			s.rec.Record(s.machine.Clock(), "forward-error", err.Error())
		} else {
			s.forwarded.Inc()
		}
	}
}

// Metrics returns the service's registry.
func (s *Service) Metrics() *telemetry.Registry { return s.reg }

// Register adds a runtime to the service (the runtime side of the
// local protocol). Once the machine hosts two or more distinct
// instrumented modules, every registration re-verifies the machine's
// module set, so a module that is broken itself or breaks the set's
// RPC/SYNC invariants is flagged the moment it joins — before any
// fault needs diagnosing. (A lone module was verified by whatever
// loaded it: tbinstr refuses to write a failing one, tbrun checks it.)
func (s *Service) Register(rt *tbrt.Runtime) {
	s.runtimes = append(s.runtimes, rt)
	if len(s.fleetModules()) >= 2 {
		s.VerifyFleet()
	}
}

// fleetModules gathers the distinct instrumented modules currently
// loaded across every registered runtime, deduplicated by checksum
// (two processes running the same module contribute one fleet member).
func (s *Service) fleetModules() []verify.Input {
	seen := map[string]bool{}
	var out []verify.Input
	for _, rt := range s.runtimes {
		for _, lm := range rt.Proc().Modules {
			if lm.Unloaded || lm.Mod == nil || !lm.Mod.Instrumented {
				continue
			}
			sum := lm.Mod.ChecksumHex()
			if seen[sum] {
				continue
			}
			seen[sum] = true
			out = append(out, verify.Input{Module: lm.Mod})
		}
	}
	return out
}

// VerifyFleet verifies every distinct instrumented module on the
// machine as one set (per-module passes for each, cross-module passes
// once there are two or more), recording the outcome in the verify_
// counters and the flight recorder.
func (s *Service) VerifyFleet() *verify.Result {
	res := verify.Verify(s.fleetModules(), verify.Options{})
	s.verify.Observe(res)
	kind := "fleet-verified"
	if !res.Ok() {
		kind = "fleet-verify-failed"
	}
	s.rec.Record(s.machine.Clock(), kind,
		fmt.Sprintf("%d module(s), %d error(s)", len(res.Modules), res.NumError))
	return res
}

// Peer connects this service to another machine's service for
// cross-machine group snaps.
func (s *Service) Peer(other *Service) {
	s.peers = append(s.peers, other)
	other.peers = append(other.peers, s)
}

// Group declares that the named processes form an application group:
// a fault in any of them snaps all of them (paper §3.6.1).
func (s *Service) Group(names ...string) {
	s.groups = append(s.groups, names)
}

// CheckStatus performs the heartbeat sweep: every registered runtime
// whose process is alive but has made no progress within HangCycles
// is declared hung and snapped (with its group). Returns the hung
// process names.
func (s *Service) CheckStatus() []string {
	var hung []string
	now := s.machine.Clock()
	s.heartbeats.Inc()
	for _, rt := range s.runtimes {
		p := rt.Proc()
		if p.Exited || !p.Alive() {
			continue
		}
		if now-p.LastProgress() < s.HangCycles {
			continue
		}
		hung = append(hung, p.Name)
		s.hangs.Inc()
		s.rec.Record(now, "heartbeat-miss", p.Name)
		if rt.PolicyHang() {
			s.collect(rt.TakeSnap(tbrt.SnapReason{Kind: "hang", Detail: "heartbeat timeout"}))
			s.snapGroupOf(p.Name)
		}
	}
	return hung
}

// ExternalSnap snaps a process by name — the external snap utility
// for hung or unresponsive processes (paper §3.6). Works on dead
// processes too, reading the trace region out of their memory.
func (s *Service) ExternalSnap(name string) (*snap.Snap, error) {
	for _, rt := range s.runtimes {
		if rt.Proc().Name != name {
			continue
		}
		var sn *snap.Snap
		if rt.Proc().Exited {
			sn = rt.PostMortemSnap()
		} else {
			sn = rt.TakeSnap(tbrt.SnapReason{Kind: "external", Detail: "snap utility"})
		}
		if sn != nil {
			s.collect(sn)
			s.externals.Inc()
		}
		return sn, nil
	}
	return nil, fmt.Errorf("service: no registered process %q", name)
}

// NotifyFault is called when a runtime snaps on a fault; the service
// propagates a group snap to related processes, including those on
// peer machines.
func (s *Service) NotifyFault(name string) {
	s.snapGroupOf(name)
}

func (s *Service) snapGroupOf(name string) {
	seen := map[*Service]bool{s: true}
	all := append([]*Service{s}, s.peers...)
	for _, g := range s.groups {
		member := false
		for _, n := range g {
			if n == name {
				member = true
			}
		}
		if !member {
			continue
		}
		for _, n := range g {
			if n == name {
				continue
			}
			for _, svc := range all {
				if seen[svc] && svc != s {
					continue
				}
				for _, rt := range svc.runtimes {
					if rt.Proc().Name == n && !rt.Proc().Exited {
						if sn := rt.TakeSnap(tbrt.SnapReason{Kind: "group", Detail: "fault in " + name}); sn != nil {
							s.collect(sn)
							s.groupSnaps.Inc()
						}
					}
				}
			}
		}
	}
}
