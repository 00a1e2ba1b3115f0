package replay

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"traceback/internal/mvm"
	"traceback/internal/scenario"
	"traceback/internal/snap"
	"traceback/internal/trace"
)

func loadSnap(b []byte) (*snap.Snap, error) {
	return snap.Load(bytes.NewReader(b))
}

// managedRecordHook is the recording OnQuantum the fault campaign's
// managed trials install: count quanta, checkpoint, fire the
// interrupt once at quantum `at`, and record the fire.
func managedRecordHook(rec *Recorder, q *uint64, fired *bool, at uint64, victim int) func(*mvm.VM) {
	return func(v *mvm.VM) {
		*q++
		rec.ManagedQuantum(*q, v.Machine)
		if !*fired && *q >= at {
			*fired = true
			v.Interrupt(victim, mvm.ExcInterrupted)
			rec.ManagedInterrupt(*q, victim, mvm.ExcInterrupted)
		}
	}
}

// TestRecordReplayScenarios is the core guarantee: every example
// scenario, recorded and replayed, reconstructs its snaps byte for
// byte with zero divergence and full log consumption.
func TestRecordReplayScenarios(t *testing.T) {
	for _, b := range scenario.Builders {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			l, res, err := Record(b.Name, false, false)
			if err != nil {
				t.Fatalf("record: %v", err)
			}
			if len(l.Events) == 0 {
				t.Fatalf("empty recording")
			}
			v, err := Verify(l, res.Snaps)
			if err != nil {
				t.Fatalf("verify: %v", err)
			}
			if v.Divergence != nil {
				t.Fatalf("diverged: %v", v.Divergence)
			}
			if !v.Identical {
				t.Fatalf("replay not byte-identical")
			}
		})
	}
}

// TestRecordingParity proves recording-off runs are untouched and
// recording-on runs are cycle-identical: same final clocks, same
// process cycles, same snap bytes. This is the Table 1 parity
// argument — the recorder only observes, never perturbs — and, on
// every example scenario, the link between a recorded harvest and the
// recording-free fleet committed under snaps/.
func TestRecordingParity(t *testing.T) {
	for _, b := range scenario.Builders {
		t.Run(b.Name, func(t *testing.T) { recordingParity(t, b.Name) })
	}
}

func recordingParity(t *testing.T, name string) {
	run := func(record bool) (uint64, uint64, [][]byte) {
		setup, err := scenario.Build(name, scenario.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if record {
			setup.World.SetRecorder(&Recorder{})
		}
		setup.Run(0)
		b, err := setup.Collect()
		if err != nil {
			t.Fatal(err)
		}
		var clock, cycles uint64
		for _, p := range setup.Procs {
			clock += p.Machine.Clock()
			cycles += p.Cycles
		}
		var raw [][]byte
		for _, s := range b.Snaps {
			sb, err := StrippedBytes(s)
			if err != nil {
				t.Fatal(err)
			}
			raw = append(raw, sb)
		}
		return clock, cycles, raw
	}
	offClock, offCycles, offSnaps := run(false)
	onClock, onCycles, onSnaps := run(true)
	if offClock != onClock {
		t.Errorf("clock changed with recording on: %d vs %d", offClock, onClock)
	}
	if offCycles != onCycles {
		t.Errorf("cycles changed with recording on: %d vs %d", offCycles, onCycles)
	}
	if len(offSnaps) != len(onSnaps) {
		t.Fatalf("snap count changed: %d vs %d", len(offSnaps), len(onSnaps))
	}
	for i := range offSnaps {
		if !bytes.Equal(offSnaps[i], onSnaps[i]) {
			t.Errorf("snap %d bytes changed with recording on", i)
		}
	}
}

// rejected requires the replay to have diverged with the given kind
// and a machine-readable report: the error message embeds a JSON
// object that parses back to the same kind.
func rejected(t *testing.T, res *Result, kind string) {
	t.Helper()
	if res.Divergence == nil {
		t.Fatalf("seeded %s corruption replayed cleanly", kind)
	}
	if res.Divergence.Kind != kind {
		t.Fatalf("kind = %q, want %s", res.Divergence.Kind, kind)
	}
	msg := res.Divergence.Error()
	i := strings.Index(msg, "{")
	if i < 0 {
		t.Fatalf("no JSON in %q", msg)
	}
	var parsed Divergence
	if err := json.Unmarshal([]byte(msg[i:]), &parsed); err != nil {
		t.Fatalf("unparseable divergence %q: %v", msg, err)
	}
	if parsed.Kind != kind {
		t.Fatalf("parsed kind = %q", parsed.Kind)
	}
}

// TestDivergenceDetected seeds two corrupt logs and asserts both are
// rejected with machine-readable divergence reports.
func TestDivergenceDetected(t *testing.T) {
	l, _, err := Record("quickstart", false, false)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("event-mismatch", func(t *testing.T) {
		bad := &snap.NondetLog{V: l.V, Scenario: l.Scenario}
		bad.Events = append([]trace.NondetRecord(nil), l.Events...)
		ck := -1
		for i, ev := range bad.Events {
			if ev.Kind == trace.NDQuantum {
				ck = i
				break
			}
		}
		if ck < 0 {
			t.Fatal("no checkpoint in recording")
		}
		bad.Events[ck].Clock++
		res, err := Run(bad)
		if err != nil {
			t.Fatal(err)
		}
		rejected(t, res, "event-mismatch")
	})

	t.Run("log-exhausted", func(t *testing.T) {
		// A torn log: the tail event never arrives (quickstart records
		// one event, so nothing does).
		bad := &snap.NondetLog{V: l.V, Scenario: l.Scenario}
		bad.Events = append([]trace.NondetRecord(nil), l.Events[:len(l.Events)-1]...)
		res, err := Run(bad)
		if err != nil {
			t.Fatal(err)
		}
		rejected(t, res, "log-exhausted")
	})
}

// TestSectionRoundtrip pushes a log through the snap section and back.
func TestSectionRoundtrip(t *testing.T) {
	l, res, err := Record("quickstart", false, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Snaps {
		s.Nondet = l
	}
	var buf bytes.Buffer
	if err := res.Snaps[0].Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := loadSnap(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	l2, err := FromSnap(s2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l2, l) {
		t.Fatalf("recording changed across the section: %+v, want %+v", l2, l)
	}
	// And the replay from the embedded section verifies too.
	v, err := Verify(l2, res.Snaps)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Identical || v.Divergence != nil {
		t.Fatalf("replay from section failed: %v", v.Divergence)
	}
}

// TestFromSnapRefusals: a recording of another version, or one that
// holds a record kind replay does not know, is refused with an error
// before any world is built. A version-1 section (binary words) is
// told to be re-recorded.
func TestFromSnapRefusals(t *testing.T) {
	for _, c := range []struct {
		name, section, want string
	}{
		{"unknown-kind", `{"v":2,"scenario":"quickstart","events":[{"kind":1,"quantum":1},{"kind":153}]}`, "event 1: unknown kind 153"},
		{"zero-kind", `{"v":2,"scenario":"quickstart","events":[{"quantum":1}]}`, "event 0: unknown kind 0"},
		{"version-1", `{"v":1,"scenario":"quickstart","interval":64,"raw":"AQBETg=="}`, "re-record"},
		{"version-3", `{"v":3,"scenario":"quickstart","events":[]}`, "unknown recording version 3"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := loadSnap([]byte(`{"process":"app","reason":"api","nondet":` + c.section + `}`))
			if err != nil {
				t.Fatal(err)
			}
			l, err := FromSnap(s)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("FromSnap = %+v, %v; want an error naming %q", l, err, c.want)
			}
		})
	}
}

// TestPerturb replays a clean recording under one seeded variation;
// the variation must be applied (non-empty description) and the run
// must complete without environmental error.
func TestPerturb(t *testing.T) {
	l, _, err := Record("quickstart", false, false)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := Perturb(l, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Mutation == "" || strings.HasPrefix(pr.Mutation, "no-op") {
		t.Fatalf("no mutation applied: %q", pr.Mutation)
	}
	if pr.Result == nil {
		t.Fatal("no result")
	}
}

// TestManagedRecordReplay mirrors the fault campaign's managed trial:
// record a PetShop run with an interrupt, then verify its replay.
func TestManagedRecordReplay(t *testing.T) {
	v, threads, _, err := BuildPetShop()
	if err != nil {
		t.Fatal(err)
	}
	rec := &Recorder{}
	var q uint64
	fired := false
	v.OnQuantum = managedRecordHook(rec, &q, &fired, 40, 1)
	v.Run(1<<30, mvm.AllDone(threads))
	snaps := v.Runtime().Snaps()
	if len(snaps) == 0 {
		t.Fatal("managed trial produced no snap")
	}
	l := rec.Log(ManagedScenario, false, true)
	if !fired {
		t.Fatal("interrupt never fired")
	}
	res, err := Verify(l, snaps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Divergence != nil {
		t.Fatalf("diverged: %v", res.Divergence)
	}
	if !res.Identical {
		t.Fatal("managed replay not byte-identical")
	}
}
