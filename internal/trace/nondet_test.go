package trace

import (
	"encoding/json"
	"strings"
	"testing"
)

func sampleNondet() []NondetRecord {
	return []NondetRecord{
		{Kind: NDQuantum, Quantum: 1, Machine: 0, PID: 1, TID: 1, Clock: 64},
		{Kind: NDSignal, Quantum: 90, Machine: 1, PID: 2, TID: 3, Sig: 30, PC: 0x1122334455, Clock: 7788},
		{Kind: NDKill, Quantum: 120, Machine: 0, PID: 1, Clock: 9999},
		{Kind: NDUnload, Quantum: 44, Machine: 0, PID: 1, Index: 2, Clock: 500},
		{Kind: NDRPCFault, Quantum: 7, Machine: 1, PID: 2, TID: 1, Endpoint: 9, Index: 3, Flags: NDFDrop, Delay: 0},
		{Kind: NDRPCFault, Quantum: 8, Machine: 1, PID: 2, TID: 1, Endpoint: 9, Index: 4, Flags: NDFReply | NDFDup, Delay: 5000},
		{Kind: NDRPCDeliver, Quantum: 9, Machine: 0, PID: 1, TID: 2, PID2: 2, TID2: 1, Endpoint: 9, Len: 128, Clock: 1 << 40},
		{Kind: NDManaged, Quantum: 1000, TID: 2, Sig: 107},
	}
}

// TestNondetRoundTrip: every field of every kind survives the JSON
// the snap stores records in, and the zero fields of a kind are
// omitted rather than written.
func TestNondetRoundTrip(t *testing.T) {
	recs := sampleNondet()
	b, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	var got []NondetRecord
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
	if b, err := json.Marshal(NondetRecord{Kind: NDKill, PID: 1}); err != nil || string(b) != `{"kind":3,"pid":1}` {
		t.Errorf("kill record = %s, %v; want only its kind and pid", b, err)
	}
}

func TestNondetString(t *testing.T) {
	for _, r := range sampleNondet() {
		s := r.String()
		if s == "" || !strings.Contains(s, "q=") {
			t.Errorf("%v: unhelpful String %q", r.Kind, s)
		}
	}
	// Kind names render for tbdump.
	if NDRPCDeliver.String() != "rpc-deliver" {
		t.Errorf("kind string = %q", NDRPCDeliver.String())
	}
}
