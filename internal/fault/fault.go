// Package fault is the fault-injection campaign orchestrator: it
// sweeps seeded faults — abrupt kills, signal storms, RPC transport
// perturbation, module unloads, trace-buffer-wrap stress, managed
// async interrupts — across the example scenarios, snaps every run,
// and asserts per-scenario reconstruction invariants.
//
// The campaign rides the repository's central determinism property:
// all nondeterminism is owned by the VM, so a fault schedule drawn
// from a single seed is exactly reproducible — the whole campaign
// (schedule, fault parameters, report) is a pure function of the
// seed. That is the Box-of-Pain-style co-design of injection and
// tracing: faults land at the same scheduling quanta and RPC
// transport points the tracer instruments, never at wall-clock
// times.
//
// Invariants checked per trial:
//
//   - no-torn-records: every snap reconstructs without error, even
//     after kill -9 mid-record (sub-buffer commit points bound the
//     loss, paper §3.2).
//   - sync-causal: SYNC sequence numbers are per-thread monotonic,
//     and every received sequence was sent by its logical-thread
//     peer (unless the peer's history wrapped away).
//   - fault-line: the faulting (or last-executed) block/line of the
//     victim resolves through the mapfiles to a source position.
package fault

import (
	"fmt"
	"sort"

	"traceback/internal/telemetry"
)

// Fault kinds, in canonical campaign order.
const (
	KindKill     = "kill"      // kill -9 at a seeded scheduling quantum
	KindSignal   = "signal"    // storm of async signals at seeded quanta
	KindRPCDrop  = "rpc-drop"  // drop a seeded request or reply on the wire
	KindRPCDelay = "rpc-delay" // delay a seeded request past its successors (reorder)
	KindRPCDup   = "rpc-dup"   // duplicate a seeded request (at-least-once failure)
	KindUnload   = "unload"    // unload a module mid-call
	KindWrap     = "wrap"      // tiny trace buffers: wrap/truncation stress
	KindManaged  = "managed"   // async interrupt in the managed (mvm) runtime
)

// AllKinds lists every kind in canonical order.
var AllKinds = []string{
	KindKill, KindSignal, KindRPCDrop, KindRPCDelay, KindRPCDup,
	KindUnload, KindWrap, KindManaged,
}

// ExpandKinds normalizes a user kind list: "all" (or empty) expands
// to every kind, "rpc" to the three transport kinds; the result is
// deduplicated and put in canonical order.
func ExpandKinds(kinds []string) ([]string, error) {
	want := map[string]bool{}
	if len(kinds) == 0 {
		kinds = []string{"all"}
	}
	for _, k := range kinds {
		switch k {
		case "all", "":
			for _, a := range AllKinds {
				want[a] = true
			}
		case "rpc":
			want[KindRPCDrop] = true
			want[KindRPCDelay] = true
			want[KindRPCDup] = true
		default:
			ok := false
			for _, a := range AllKinds {
				if k == a {
					ok = true
					break
				}
			}
			if !ok {
				return nil, fmt.Errorf("fault: unknown kind %q (have %v, plus \"rpc\", \"all\")", k, AllKinds)
			}
			want[k] = true
		}
	}
	var out []string
	for _, a := range AllKinds {
		if want[a] {
			out = append(out, a)
		}
	}
	return out, nil
}

// scenariosFor maps a kind to the scenarios it applies to. RPC and
// unload faults need the cross-machine world; wrap stresses it too
// because its server faults naturally under tiny buffers; managed
// runs its own mvm world.
func scenariosFor(kind string) []string {
	switch kind {
	case KindKill, KindSignal:
		return []string{"quickstart", "crossmachine", "deadlock"}
	case KindRPCDrop, KindRPCDelay, KindRPCDup, KindUnload, KindWrap:
		return []string{"crossmachine"}
	case KindManaged:
		return []string{"petshop"}
	}
	return nil
}

// Config parameterizes a campaign. The zero value is invalid: Seed
// must be set (0 is a valid seed, but pass Kinds explicitly).
type Config struct {
	// Seed determines the entire campaign: trial schedule, fault
	// parameters, and report are a pure function of it.
	Seed int64
	// Kinds is the expanded kind list (see ExpandKinds).
	Kinds []string
	// Scenarios restricts trials to these scenarios (nil: all that
	// apply to each kind).
	Scenarios []string
	// Record captures every trial's nondeterminism (kills, signals,
	// unloads, RPC verdicts, managed interrupts) and replay-verifies
	// the trial: the recording re-executed as the sole nondeterminism
	// source must reconstruct the harvest byte for byte. Violations
	// land under the replay-identical invariant, and the harvested
	// snaps carry their recording as an embedded section so any snap
	// committed as evidence replays standalone via tbreplay.
	Record bool
	// Telemetry receives the fault_* counters and flight events
	// (nil: a private registry).
	Telemetry *telemetry.Registry
}

// Campaign is one seeded fault-injection sweep.
type Campaign struct {
	cfg Config
	rec *telemetry.Recorder
	met campaignMetrics

	// spans caches baseline quantum/RPC counts per scenario+config
	// class so fault times can be drawn inside the live window.
	spans map[string]baseline

	// artifacts holds the evidence bundles of violating trials, for
	// committing as regression snaps.
	artifacts []Artifact
}

type campaignMetrics struct {
	trials     *telemetry.Counter
	injected   *telemetry.Counter
	kills      *telemetry.Counter
	signals    *telemetry.Counter
	rpcFaults  *telemetry.Counter
	unloads    *telemetry.Counter
	interrupts *telemetry.Counter
	snaps      *telemetry.Counter
	violations *telemetry.Counter
	replays    *telemetry.Counter
	replayDiv  *telemetry.Counter
}

// New builds a campaign.
func New(cfg Config) (*Campaign, error) {
	kinds, err := ExpandKinds(cfg.Kinds)
	if err != nil {
		return nil, err
	}
	cfg.Kinds = kinds
	if len(cfg.Scenarios) > 0 {
		sort.Strings(cfg.Scenarios)
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.New()
	}
	c := &Campaign{
		cfg:   cfg,
		rec:   reg.Recorder(256),
		spans: map[string]baseline{},
	}
	c.met = campaignMetrics{
		trials:     reg.Counter("fault_trials_total", "fault-injection trials executed"),
		injected:   reg.Counter("fault_injected_total", "fault events actually fired (all kinds)"),
		kills:      reg.Counter("fault_kills_total", "abrupt process kills injected"),
		signals:    reg.Counter("fault_signals_total", "async signals injected"),
		rpcFaults:  reg.Counter("fault_rpc_total", "RPC transport faults injected (drop/delay/dup)"),
		unloads:    reg.Counter("fault_unloads_total", "mid-call module unloads injected"),
		interrupts: reg.Counter("fault_managed_interrupts_total", "managed async interrupts injected"),
		snaps:      reg.Counter("fault_snaps_total", "snaps harvested from faulted runs"),
		violations: reg.Counter("fault_violations_total", "invariant violations detected"),
		replays:    reg.Counter("fault_replays_total", "trial recordings replay-verified"),
		replayDiv:  reg.Counter("fault_replay_divergence_total", "trial replays that diverged from their recording"),
	}
	return c, nil
}

func (c *Campaign) wantScenario(name string) bool {
	if len(c.cfg.Scenarios) == 0 {
		return true
	}
	for _, s := range c.cfg.Scenarios {
		if s == name {
			return true
		}
	}
	return false
}
