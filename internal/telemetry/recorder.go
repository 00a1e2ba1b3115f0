package telemetry

import "sync"

// Event is one flight-recorder entry: a notable, rare occurrence
// (buffer wrap, dead-thread scavenge, bad-DAG record, snap trigger,
// desperation-buffer use, heartbeat miss, RPC sync). Clock is the
// producer's clock — the deterministic machine clock for VM-adjacent
// layers — so dumps are reproducible run to run.
type Event struct {
	Seq    uint64 `json:"seq"`
	Clock  uint64 `json:"clock"`
	Kind   string `json:"kind"`
	Detail string `json:"detail,omitempty"`
}

// Recorder is a bounded ring of the last N events. Recording is
// mutex-guarded (events are rare by contract — do not put one on a
// per-instruction path); sequence numbers are assigned under the same
// lock so they are strictly monotone and dense.
type Recorder struct {
	mu    sync.Mutex
	ring  []Event
	cap   int
	total uint64
}

// NewRecorder creates a recorder retaining the last n events
// (minimum 1).
func NewRecorder(n int) *Recorder {
	if n < 1 {
		n = 1
	}
	return &Recorder{ring: make([]Event, 0, n), cap: n}
}

// Record appends an event, evicting the oldest when full.
func (r *Recorder) Record(clock uint64, kind, detail string) {
	r.mu.Lock()
	e := Event{Seq: r.total, Clock: clock, Kind: kind, Detail: detail}
	r.total++
	if len(r.ring) < r.cap {
		r.ring = append(r.ring, e)
	} else {
		r.ring[int(e.Seq)%r.cap] = e
	}
	r.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.ring))
	if r.total <= uint64(r.cap) {
		return append(out, r.ring...)
	}
	start := int(r.total) % r.cap
	out = append(out, r.ring[start:]...)
	return append(out, r.ring[:start]...)
}

// Total returns how many events were ever recorded.
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many events were evicted by the ring bound.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total <= uint64(r.cap) {
		return 0
	}
	return r.total - uint64(r.cap)
}

// EventDump is the serialized form of a flight recorder: the "events"
// of the JSON exposition (Registry.WriteJSON), which `-metrics
// run.json` and `/metrics?format=json` write.
type EventDump struct {
	Total   uint64  `json:"total"`
	Dropped uint64  `json:"dropped"`
	Events  []Event `json:"events"`
}

// Dump snapshots the recorder.
func (r *Recorder) Dump() EventDump {
	return EventDump{Total: r.Total(), Dropped: r.Dropped(), Events: r.Events()}
}
