// Package telemetry is the repository's self-measurement spine: a
// stdlib-only metrics registry (atomic counters, gauges, fixed-bucket
// histograms) plus a bounded structured-event ring buffer (the
// "flight recorder"). TraceBack is itself an observability system;
// this package is how the reproduction observes the observer —
// buffer wraps, scavenges, bad-DAG fallbacks, snap latency, pipeline
// stage costs — without charging a single VM cycle (all telemetry is
// host-side) and without allocating on the hot path (an increment is
// one atomic add on a pre-registered counter).
//
// One Registry is meant to be shared across layers: the VM, runtime,
// service, and reconstruction pipeline each register metrics under
// their own name prefix (vm_, tbrt_, svc_, recon_) and the registry
// exposes the union in Prometheus text format or JSON (expo.go).
// Metric handles are resolved once at registration; the hot path
// never touches the registry's lock or maps.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing, concurrency-safe counter.
// The zero value is ready to use; Inc is a single atomic add.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a concurrency-safe instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. Bounds are inclusive
// upper bounds in ascending order; an overflow bucket (+Inf) is
// implicit. Observe is allocation-free: a linear scan over the bounds
// (bucket counts are small by design) and two atomic adds.
type Histogram struct {
	bounds []uint64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// HistogramSnapshot is a plain-value copy of a histogram with
// bucket-resolution quantile estimates.
type HistogramSnapshot struct {
	Bounds []uint64 `json:"bounds"` // inclusive upper bounds; +Inf implicit
	Counts []uint64 `json:"counts"` // len(Bounds)+1
	Sum    uint64   `json:"sum"`
	Count  uint64   `json:"count"`
	P50    uint64   `json:"p50"`
	P95    uint64   `json:"p95"`
	P99    uint64   `json:"p99"`
}

// Snapshot copies the histogram. Concurrent Observes may land between
// bucket reads; counts are monotone so the snapshot is a valid state
// no older than the call.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	s.Sum = h.sum.Load()
	s.P50 = s.quantile(0.50)
	s.P95 = s.quantile(0.95)
	s.P99 = s.quantile(0.99)
	return s
}

// quantile returns the upper bound of the bucket containing the q-th
// observation — rank ⌈q·N⌉, bucket resolution; the overflow bucket
// reports the last finite bound.
func (s HistogramSnapshot) quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			break
		}
	}
	if len(s.Bounds) == 0 {
		return 0
	}
	return s.Bounds[len(s.Bounds)-1]
}

// DurationBuckets are nanosecond bounds from 1µs to 10s, roughly
// logarithmic — sized for host-side stage latencies (snap writes,
// pipeline stages).
func DurationBuckets() []uint64 {
	return []uint64{
		1_000, 10_000, 100_000, 500_000,
		1_000_000, 5_000_000, 10_000_000, 50_000_000,
		100_000_000, 500_000_000, 1_000_000_000, 10_000_000_000,
	}
}

// SizeBuckets are byte/word-count bounds from 64 to 16M, powers of 4.
func SizeBuckets() []uint64 {
	return []uint64{64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 16777216}
}

// metricKind orders exposition output.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// Registry holds named metrics. Registration (Counter, Gauge,
// Histogram, GaugeFunc) is get-or-create and locked; the returned
// handles are lock-free. A registry also owns at most one flight
// recorder (Recorder).
type Registry struct {
	mu       sync.Mutex
	kinds    map[string]metricKind
	help     map[string]string
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string][]func() int64
	hists    map[string]*Histogram
	recorder *Recorder
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		kinds:    map[string]metricKind{},
		help:     map[string]string{},
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		gaugeFns: map[string][]func() int64{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first sight.
// Registering the same name twice returns the same counter (layers
// sharing a registry aggregate naturally).
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	r.kinds[name] = kindCounter
	r.help[name] = help
	return c
}

// Gauge returns the named gauge, creating it on first sight.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{}
	r.gauges[name] = g
	r.kinds[name] = kindGauge
	r.help[name] = help
	return g
}

// GaugeFunc registers a sampled gauge: fn is called at exposition
// time. Multiple registrations under one name sum their samples (two
// machines sharing a registry expose aggregate cycles).
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFns[name] = append(r.gaugeFns[name], fn)
	r.kinds[name] = kindGaugeFunc
	r.help[name] = help
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first sight (later bounds are ignored).
func (r *Registry) Histogram(name, help string, bounds []uint64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	r.hists[name] = h
	r.kinds[name] = kindHistogram
	r.help[name] = help
	return h
}

// Recorder returns the registry's flight recorder, creating it with
// capacity n on first call (later sizes are ignored), so layers
// sharing a registry share one event ring.
func (r *Registry) Recorder(n int) *Recorder {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.recorder == nil {
		r.recorder = NewRecorder(n)
	}
	return r.recorder
}

// FlightRecorder returns the recorder if one was created, else nil.
func (r *Registry) FlightRecorder() *Recorder {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recorder
}

// names returns all metric names, sorted, for deterministic exposition.
func (r *Registry) names() []string {
	out := make([]string, 0, len(r.kinds))
	for n := range r.kinds {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// sampleGaugeFns sums the registered functions for name. Caller holds
// no lock; the fns slice is never mutated after registration ends, but
// we copy under the lock to stay safe against late registration.
func (r *Registry) sampleGaugeFns(fns []func() int64) int64 {
	var v int64
	for _, fn := range fns {
		v += fn()
	}
	return v
}
