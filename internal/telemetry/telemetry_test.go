package telemetry

import (
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("x_total", "")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("x_total", ""); again != c {
		t.Fatal("re-registration did not return the same counter")
	}
	g := r.Gauge("g", "")
	g.Set(7)
	if got := g.Load(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	sampled := int64(10)
	r.GaugeFunc("gf", "", func() int64 { return sampled })
	r.GaugeFunc("gf", "", func() int64 { return 1 })
	r.mu.Lock()
	got := r.sampleGaugeFns(r.gaugeFns["gf"])
	r.mu.Unlock()
	if got != 11 {
		t.Fatalf("summed gauge funcs = %d, want 11", got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("h", "", []uint64{10, 100, 1000})
	for v := uint64(1); v <= 10; v++ {
		h.Observe(v) // all land in le=10
	}
	h.Observe(50)   // le=100
	h.Observe(5000) // +Inf
	s := h.Snapshot()
	if s.Count != 12 || s.Sum != 55+50+5000 {
		t.Fatalf("count=%d sum=%d", s.Count, s.Sum)
	}
	wantCounts := []uint64{10, 1, 0, 1}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.P50 != 10 {
		t.Errorf("p50 = %d, want 10 (rank 6 of 12 lands in le=10)", s.P50)
	}
	// Ranks ⌈0.95·12⌉ = ⌈0.99·12⌉ = 12: the overflow bucket, reported
	// at the last finite bound.
	if s.P95 != 1000 {
		t.Errorf("p95 = %d, want 1000", s.P95)
	}
	if s.P99 != 1000 {
		t.Errorf("p99 = %d, want 1000", s.P99)
	}
}

// TestHistogramConcurrentHammer drives one histogram from 16
// goroutines (run under -race via make test-race): the total count
// and sum must be exact — no lost updates.
func TestHistogramConcurrentHammer(t *testing.T) {
	const goroutines = 16
	const perG = 10_000
	r := New()
	h := r.Histogram("hot", "", DurationBuckets())
	c := r.Counter("hot_total", "")
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(uint64(g*perG + i))
				c.Inc()
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", s.Count, goroutines*perG)
	}
	var bucketTotal uint64
	for _, n := range s.Counts {
		bucketTotal += n
	}
	if bucketTotal != goroutines*perG {
		t.Fatalf("bucket total = %d, want %d", bucketTotal, goroutines*perG)
	}
	// Sum of 0..N-1.
	n := uint64(goroutines * perG)
	if want := n * (n - 1) / 2; s.Sum != want {
		t.Fatalf("sum = %d, want %d", s.Sum, want)
	}
	if c.Load() != n {
		t.Fatalf("counter = %d, want %d", c.Load(), n)
	}
}

func TestHistogramEmptyQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("e", "", []uint64{1})
	s := h.Snapshot()
	if s.P50 != 0 || s.P95 != 0 || s.P99 != 0 || s.Count != 0 {
		t.Fatalf("empty histogram snapshot = %+v", s)
	}
}
