package snap

import (
	"bytes"
	"reflect"
	"testing"

	"traceback/internal/trace"
)

// TestNondetSectionRoundTrip: a snap carrying the optional
// record-and-replay section round-trips it record for record,
// provenance included.
func TestNondetSectionRoundTrip(t *testing.T) {
	s := sample()
	s.Nondet = &NondetLog{V: 2, Scenario: "quickstart", Trial: true, Events: []trace.NondetRecord{
		{Kind: trace.NDQuantum, Quantum: 64, PID: 1, TID: 1, Clock: 4096},
		{Kind: trace.NDKill, Quantum: 120, PID: 1, Clock: 9999},
	}}

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Nondet, s.Nondet) {
		t.Fatalf("section changed: %+v, want %+v", got.Nondet, s.Nondet)
	}
}

// TestSnapWithoutNondet: the section is optional and versioned —
// snaps saved before it existed (or with it stripped) load with
// Nondet nil, and saving such a snap emits no nondet key at all.
func TestSnapWithoutNondet(t *testing.T) {
	s := sample()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"nondet"`)) {
		t.Fatal("recording-free snap serialized a nondet key")
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Nondet != nil {
		t.Fatalf("nondet section materialized from nothing: %+v", got.Nondet)
	}
}
