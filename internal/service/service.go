// Package service implements the per-machine TraceBack service
// process (paper §3.6.1, §3.7.5): runtimes register with it, it
// re-verifies the machine's module set as modules join, and it
// exchanges heartbeats to detect hung processes and snap them.
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
	// hangCycles is how long a process may go without executing an
	// instruction before the STATUS check declares it hung.
	hangCycles uint64

	runtimes []*tbrt.Runtime

	// Snaps collects the hang snaps the service triggered.
	Snaps []*snap.Snap

	// Self-telemetry (svc_ and verify_ prefixes) plus a flight
	// recorder for heartbeat misses and verification outcomes.
	reg        *telemetry.Registry
	rec        *telemetry.Recorder
	verify     *verify.Metrics
	heartbeats *telemetry.Counter
	hangs      *telemetry.Counter
}

// New creates the machine's service process.
func New(m *vm.Machine, hangCycles uint64) *Service {
	if hangCycles == 0 {
		hangCycles = 500_000
	}
	reg := telemetry.New()
	s := &Service{machine: m, hangCycles: hangCycles, reg: reg, rec: reg.Recorder(256)}
	s.heartbeats = reg.Counter("svc_heartbeats_total", "STATUS sweeps over registered runtimes")
	s.hangs = reg.Counter("svc_hangs_total", "processes declared hung by heartbeat timeout")
	s.verify = verify.NewMetrics(reg)
	return s
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

// CheckStatus performs the heartbeat sweep: every registered runtime
// whose process is alive but has made no progress within hangCycles
// is declared hung and, under its runtime's hang policy, snapped.
// Returns the hung process names.
func (s *Service) CheckStatus() []string {
	var hung []string
	now := s.machine.Clock()
	s.heartbeats.Inc()
	for _, rt := range s.runtimes {
		p := rt.Proc()
		if p.Exited || !p.Alive() {
			continue
		}
		if now-p.LastProgress() < s.hangCycles {
			continue
		}
		hung = append(hung, p.Name)
		s.hangs.Inc()
		s.rec.Record(now, "heartbeat-miss", p.Name)
		if rt.PolicyHang() {
			if sn := rt.TakeSnap(tbrt.SnapReason{Kind: "hang", Detail: "heartbeat timeout"}); sn != nil {
				s.Snaps = append(s.Snaps, sn)
			}
		}
	}
	return hung
}
