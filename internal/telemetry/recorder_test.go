package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
)

// TestRecorderWrapProperty: for random capacities and event volumes,
// the recorder retains exactly the last min(total, cap) events, in
// order, with strictly monotone dense sequence numbers, and reports
// the drop count exactly.
func TestRecorderWrapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		capN := 1 + rng.Intn(64)
		total := rng.Intn(4 * capN)
		r := NewRecorder(capN)
		for i := 0; i < total; i++ {
			r.Record(uint64(1000+i), "k", fmt.Sprintf("e%d", i))
		}
		evs := r.Events()
		wantLen := total
		if wantLen > capN {
			wantLen = capN
		}
		if len(evs) != wantLen {
			t.Fatalf("trial %d (cap %d, total %d): retained %d, want %d",
				trial, capN, total, len(evs), wantLen)
		}
		wantDropped := uint64(0)
		if total > capN {
			wantDropped = uint64(total - capN)
		}
		if r.Dropped() != wantDropped {
			t.Fatalf("trial %d: dropped = %d, want %d", trial, r.Dropped(), wantDropped)
		}
		if r.Total() != uint64(total) {
			t.Fatalf("trial %d: total = %d, want %d", trial, r.Total(), total)
		}
		for i, e := range evs {
			wantSeq := uint64(total-wantLen) + uint64(i)
			if e.Seq != wantSeq {
				t.Fatalf("trial %d: event %d seq = %d, want %d", trial, i, e.Seq, wantSeq)
			}
			if want := fmt.Sprintf("e%d", wantSeq); e.Detail != want {
				t.Fatalf("trial %d: event %d detail = %q, want %q", trial, i, e.Detail, want)
			}
			if e.Clock != 1000+wantSeq {
				t.Fatalf("trial %d: event %d clock = %d, want %d", trial, i, e.Clock, 1000+wantSeq)
			}
		}
	}
}

// TestRecorderDumpRoundTrip: the registry's JSON exposition carries
// the flight recorder's dump, and it decodes back to what was kept.
func TestRecorderDumpRoundTrip(t *testing.T) {
	reg := New()
	r := reg.Recorder(3)
	for i := 0; i < 5; i++ {
		r.Record(uint64(i), "wrap", "")
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s struct{ Events *EventDump }
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil || s.Events == nil {
		t.Fatalf("no events in the exposition (%v):\n%s", err, buf.Bytes())
	}
	d := s.Events
	if d.Total != 5 || d.Dropped != 2 || len(d.Events) != 3 {
		t.Fatalf("dump = total %d dropped %d events %d", d.Total, d.Dropped, len(d.Events))
	}
	if d.Events[0].Seq != 2 || d.Events[2].Seq != 4 {
		t.Fatalf("dump seqs = %d..%d, want 2..4", d.Events[0].Seq, d.Events[2].Seq)
	}
}

func TestRegistrySharedRecorder(t *testing.T) {
	r := New()
	a := r.Recorder(8)
	b := r.Recorder(999) // size of later calls ignored
	if a != b {
		t.Fatal("registry did not share one recorder")
	}
	if r.FlightRecorder() != a {
		t.Fatal("FlightRecorder returned a different recorder")
	}
}
