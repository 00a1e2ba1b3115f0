package archive

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// mkTimedSnap builds an ingest journal record pinned to an explicit
// snap time, so it lands in a chosen rate window.
func mkTimedSnap(n int, at uint64) *JournalRecord {
	return &JournalRecord{
		V: formatVersion, Op: OpIngest,
		Sum: fmt.Sprintf("%064d", n), Sig: "aa", Title: "bucket aa",
		Host: "h1", Process: "app", Reason: "exception SIGSEGV",
		Time: at, Bytes: 10,
	}
}

// TestWindowsOrderIndependent: the retained histogram is a pure
// function of the multiset of ingest times — shuffled journal orders
// reduce to byte-identical indexes, including when stragglers arrive
// after the horizon has already moved past them.
func TestWindowsOrderIndependent(t *testing.T) {
	var recs []JournalRecord
	// Times spanning well past WindowCap windows, with duplicates per
	// window and a straggler far behind the final horizon.
	times := []uint64{
		0, 1, WindowWidth - 1, // window 0 (evicted by the end)
		WindowWidth * 5,                      // window 5 (evicted)
		WindowWidth * 70, WindowWidth*70 + 7, // retained
		WindowWidth * 99, WindowWidth * 99, WindowWidth*99 + 1, // retained, count 3
		WindowWidth * 120,
	}
	for i, at := range times {
		recs = append(recs, *mkTimedSnap(i, at))
	}

	var want []byte
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		shuffled := append([]JournalRecord(nil), recs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got, err := encodeIndex(reduceJournal(shuffled).index())
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: shuffled reduction differs:\n%s\nvs\n%s", trial, got, want)
		}
	}

	// The final histogram: stragglers behind the horizon are gone, the
	// retained windows carry exact per-window counts.
	st := reduceJournal(recs)
	b := st.buckets["aa"]
	wantWin := []RateWindow{
		{Start: WindowWidth * 70, Count: 2},
		{Start: WindowWidth * 99, Count: 3},
		{Start: WindowWidth * 120, Count: 1},
	}
	if len(b.Windows) != len(wantWin) {
		t.Fatalf("windows = %+v, want %+v", b.Windows, wantWin)
	}
	for i, w := range wantWin {
		if b.Windows[i] != w {
			t.Errorf("window %d = %+v, want %+v", i, b.Windows[i], w)
		}
	}
	if b.Count != uint64(len(recs)) {
		t.Errorf("Count = %d, want %d (eviction must not touch totals)", b.Count, len(recs))
	}
}

// TestWindowsEvictionBound: a bucket never retains more than
// WindowCap windows, and retention is measured against the bucket's
// newest window.
func TestWindowsEvictionBound(t *testing.T) {
	st := newState()
	var ws []RateWindow
	ingest := func(at uint64) {
		st.apply(mkTimedSnap(0, at))
		ws = st.buckets["aa"].Windows
	}
	for i := 0; i < WindowCap*3; i++ {
		ingest(uint64(i) * WindowWidth)
	}
	if len(ws) != WindowCap {
		t.Fatalf("retained %d windows, want %d", len(ws), WindowCap)
	}
	newest := uint64(WindowCap*3-1) * WindowWidth
	if ws[0].Start != horizonStart(newest) {
		t.Errorf("oldest retained window %d, want %d", ws[0].Start, horizonStart(newest))
	}
	// A record exactly on the horizon is retained; one window older is
	// dropped without disturbing the rest.
	before := append([]RateWindow(nil), ws...)
	ingest(horizonStart(newest) - WindowWidth)
	if len(ws) != len(before) {
		t.Errorf("behind-horizon record changed the histogram: %d vs %d windows", len(ws), len(before))
	}
	ingest(horizonStart(newest))
	if ws[0].Count != before[0].Count+1 {
		t.Errorf("on-horizon record not counted: %+v", ws[0])
	}
}

// TestWindowsConcurrentIngestParity: concurrent ingest at worker
// widths 1/4/16 yields byte-identical indexes including the rate
// windows, and a torn-journal-tail reopen reproduces them exactly.
func TestWindowsConcurrentIngestParity(t *testing.T) {
	// A fleet whose snaps scatter across many windows, several per
	// window, two signatures.
	type item struct {
		n   int
		at  uint64
		sig Signature
	}
	var items []item
	for i := 0; i < 48; i++ {
		sig := sigFor("aa")
		if i%3 == 0 {
			sig = sigFor("bb")
		}
		items = append(items, item{n: i, at: uint64(i%12) * WindowWidth, sig: sig})
	}

	var indexes [][]byte
	var roots []string
	for _, jobs := range []int{1, 4, 16} {
		root := filepath.Join(t.TempDir(), "wh")
		a, err := Open(root)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		sem := make(chan struct{}, jobs)
		for _, it := range items {
			wg.Add(1)
			sem <- struct{}{}
			go func(it item) {
				defer func() { <-sem; wg.Done() }()
				s := mkSnap("h1", it.n)
				s.Time = it.at
				if _, err := a.Ingest(s, it.sig); err != nil {
					t.Error(err)
				}
			}(it)
		}
		wg.Wait()
		idx, err := a.IndexBytes()
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		indexes = append(indexes, idx)
		roots = append(roots, root)
	}
	if !bytes.Equal(indexes[0], indexes[1]) || !bytes.Equal(indexes[0], indexes[2]) {
		t.Fatalf("rate windows differ across -jobs widths:\n%s\nvs\n%s\nvs\n%s",
			indexes[0], indexes[1], indexes[2])
	}

	// Torn tail: a crash mid-append leaves a partial final line; the
	// reopen must truncate it and reduce to the identical histogram.
	jpath := filepath.Join(roots[0], journalName)
	f, err := os.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":1,"op":"ingest","sum":"beef`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	a, err := Open(roots[0])
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	got, err := a.IndexBytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, indexes[0]) {
		t.Errorf("index after torn-tail reopen differs:\n%s\nvs\n%s", got, indexes[0])
	}
}

// TestWindowsSurviveGC: GC rewrites blob residency but never the rate
// history — a bucket whose snaps were evicted keeps its histogram.
func TestWindowsSurviveGC(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < 4; i++ {
		s := mkSnap("h1", i)
		s.Time = uint64(i) * WindowWidth
		if _, err := a.Ingest(s, sigFor("aa")); err != nil {
			t.Fatal(err)
		}
	}
	before, err := a.Bucket("aa")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.GC(GCPolicy{MaxBlobs: 1}); err != nil {
		t.Fatal(err)
	}
	after, err := a.Bucket("aa")
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Snaps) != 1 {
		t.Fatalf("gc left %d snaps, want 1", len(after.Snaps))
	}
	if len(after.Windows) != len(before.Windows) {
		t.Errorf("gc rewrote rate history: %+v vs %+v", after.Windows, before.Windows)
	}
}
