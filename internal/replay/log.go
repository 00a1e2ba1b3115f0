// Package replay re-executes a snapped run from its recorded
// nondeterminism log — the record-and-replay line (rr, iReplayer)
// grafted onto TraceBack's deterministic VM. Recording captures every
// decision the VM makes that is not a pure function of the initial
// world state (scheduling checkpoints, asynchronous signals, kills,
// unloads, RPC transport verdicts and delivery order); replay
// rebuilds the same world, installs a Driver that re-fires the
// logged perturbations as the SOLE nondeterminism source, and checks
// every re-observed decision against the log. The run either
// reproduces the original byte for byte (Verify) or stops with a
// machine-readable Divergence — there is no silent middle ground.
package replay

import (
	"bytes"
	"fmt"

	"traceback/internal/snap"
	"traceback/internal/trace"
)

// DefaultInterval is the quantum-checkpoint period: one NDQuantum
// record per this many scheduling quanta. 64 matches the VM's
// instruction slice — roughly one checkpoint per 4096 instructions.
const DefaultInterval = 64

// ManagedScenario is the scenario name recorded for managed-runtime
// (mvm PetShop) trials, which replay through the managed path rather
// than a scenario.Builders entry.
const ManagedScenario = "petshop"

// logVersion is the snap.NondetLog version this package writes and
// reads: JSON records. Version 1 held the records as binary words.
const logVersion = 2

// FromSnap returns the recording embedded in s. Snaps harvested with
// recording off have none. A replay never runs from a log it cannot
// fully account for, so a recording of another version, or one
// holding a record kind this package does not know, is refused here,
// before any world is built.
func FromSnap(s *snap.Snap) (*snap.NondetLog, error) {
	l := s.Nondet
	switch {
	case l == nil:
		return nil, fmt.Errorf("replay: snap %s/%s carries no recording (was the run recorded? see tbfault -record)", s.Process, s.Reason)
	case l.V == 1:
		return nil, fmt.Errorf("replay: recording version 1 (binary words) is no longer read; re-record the run")
	case l.V != logVersion:
		return nil, fmt.Errorf("replay: unknown recording version %d", l.V)
	}
	for i, ev := range l.Events {
		if ev.Kind < trace.NDQuantum || ev.Kind > trace.NDManaged {
			return nil, fmt.Errorf("replay: event %d: unknown kind %d", i, uint8(ev.Kind))
		}
	}
	return l, nil
}

// StrippedBytes serializes a snap with its nondet section removed —
// the byte-identity currency of replay verification. The recording is
// provenance about the run, not state of it; a replayed run's OWN
// recording is checked by strict log conformance instead, so the
// section is excluded from the byte comparison.
func StrippedBytes(s *snap.Snap) ([]byte, error) {
	c := *s
	c.Nondet = nil
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
