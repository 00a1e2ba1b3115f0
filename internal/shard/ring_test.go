package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func mustRing(t *testing.T, n int) *Ring {
	t.Helper()
	r, err := NewRing(n)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// sumOf fabricates a realistic content address deterministically.
func sumOf(i int) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("snap-%d", i)))
	return hex.EncodeToString(h[:])
}

func TestNewRingBounds(t *testing.T) {
	for _, n := range []int{0, -1, maxShards + 1} {
		if _, err := NewRing(n); err == nil {
			t.Errorf("NewRing(%d) succeeded", n)
		}
	}
	if _, err := NewRing(1); err != nil {
		t.Errorf("NewRing(1): %v", err)
	}
}

func TestPlaceRejectsBadSums(t *testing.T) {
	r := mustRing(t, 3)
	for _, sum := range []string{"", "ab", "zzzzzzzz" + sumOf(0)[8:]} {
		if _, err := r.Place(sum); err == nil {
			t.Errorf("Place(%q) succeeded", sum)
		}
	}
}

// shardRange is the half-open prefix interval [lo, hi) shard s of n
// owns by the closed form: lo = ceil(s·2^32/n).
func shardRange(n, s int) (lo, hi uint64) {
	ceilDiv := func(a, b uint64) uint64 { return (a + b - 1) / b }
	return ceilDiv(uint64(s)*prefixSpace, uint64(n)), ceilDiv(uint64(s+1)*prefixSpace, uint64(n))
}

// TestRangesTileTheSpace: every shard owns one contiguous interval,
// the intervals cover [0, 2^32) without gap or overlap, and place
// agrees with that ownership at and around every boundary.
func TestRangesTileTheSpace(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 7, 16, 33} {
		r := mustRing(t, n)
		var prevHi uint64
		for s := 0; s < n; s++ {
			lo, hi := shardRange(n, s)
			if lo != prevHi {
				t.Fatalf("n=%d shard %d: range starts at %d, want %d", n, s, lo, prevHi)
			}
			if hi <= lo {
				t.Fatalf("n=%d shard %d: empty or inverted range [%d, %d)", n, s, lo, hi)
			}
			for _, p := range []uint64{lo, hi - 1, (lo + hi) / 2} {
				if got := r.place(p); got != s {
					t.Fatalf("n=%d: place(%d) = %d, want %d (range [%d, %d))", n, p, got, s, lo, hi)
				}
			}
			prevHi = hi
		}
		if prevHi != prefixSpace {
			t.Fatalf("n=%d: ranges end at %d, want %d", n, prevHi, prefixSpace)
		}
	}
}

// TestPlacementStabilityOnGrowth: growing the ring from N to N+1
// moves some prefixes and keeps the rest on their shard. Shard 0's
// leading range survives any growth (both partitions start at 0), so
// at least 1/(N+1) of a uniform sweep of the prefix space never moves.
func TestPlacementStabilityOnGrowth(t *testing.T) {
	const samples = 4096
	for _, n := range []int{1, 2, 3, 4, 8} {
		old := mustRing(t, n)
		next := mustRing(t, n+1)
		moved := 0
		for i := uint64(0); i < samples; i++ {
			p := i * (prefixSpace / samples)
			if old.place(p) != next.place(p) {
				moved++
			}
		}
		if moved == 0 {
			t.Fatalf("n=%d->%d: growth moved nothing (ring is not rebalancing)", n, n+1)
		}
		if stable := samples - moved; stable*(n+1) < samples {
			t.Errorf("n=%d->%d: only %d of %d sampled prefixes kept their shard — less than the guaranteed 1/%d",
				n, n+1, stable, samples, n+1)
		}
	}
}

// TestPlacementByteDeterministic: the same sums place identically
// across runs, goroutines, and GOMAXPROCS settings — placement is a
// pure function with no hidden iteration-order or scheduling input.
func TestPlacementByteDeterministic(t *testing.T) {
	const n = 5
	sums := make([]string, 2000)
	for i := range sums {
		sums[i] = sumOf(i)
	}
	placeAll := func(r *Ring) []byte {
		out := make([]byte, len(sums))
		for i, sum := range sums {
			s, err := r.Place(sum)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = byte(s)
		}
		return out
	}
	want := placeAll(mustRing(t, n))

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		var wg sync.WaitGroup
		results := make([][]byte, 8)
		for g := range results {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				results[g] = placeAll(mustRing(t, n))
			}(g)
		}
		wg.Wait()
		for g, got := range results {
			if string(got) != string(want) {
				t.Fatalf("GOMAXPROCS=%d goroutine %d: placement differs from baseline", procs, g)
			}
		}
	}
}

// TestPlacementBalance: SHA-256 prefixes are uniform, so a real fleet
// spreads across shards — no shard may be empty or hold a gross
// majority at 2000 snaps over 3 shards.
func TestPlacementBalance(t *testing.T) {
	r := mustRing(t, 3)
	counts := make([]int, 3)
	for i := 0; i < 2000; i++ {
		s, err := r.Place(sumOf(i))
		if err != nil {
			t.Fatal(err)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d received nothing: %v", s, counts)
		}
		if c > 2000*2/3 {
			t.Fatalf("shard %d holds %d of 2000 snaps: %v", s, c, counts)
		}
	}
}
