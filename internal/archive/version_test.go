package archive

import (
	"sync"
	"testing"
)

// TestVersionTracksIndexChanges: the version moves on exactly the two
// things that change what Buckets returns — an ingest and a GC removal
// — and on nothing else: not a duplicate IngestUnique (which journals
// nothing), not reads. A reopen of the same directory replays to the
// same record count under a different epoch, so no tag from the
// archive's previous life can match.
func TestVersionTracksIndexChanges(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	v0 := a.Version()

	if _, err := a.IngestUnique(mkSnap("h1", 1), sigFor("aa")); err != nil {
		t.Fatal(err)
	}
	v1 := a.Version()
	if v1 == v0 || v1.Epoch != v0.Epoch || v1.Records != v0.Records+1 {
		t.Fatalf("ingest moved the version %v -> %v, want the same epoch and one more record", v0, v1)
	}

	if res, err := a.IngestUnique(mkSnap("h1", 1), sigFor("aa")); err != nil || !res.Dup {
		t.Fatalf("replayed IngestUnique: %+v, %v; want a dup", res, err)
	}
	a.Buckets()
	if _, err := a.Bucket("aa"); err != nil {
		t.Fatal(err)
	}
	if _, v := a.Snapshot(); v != v1 {
		t.Errorf("a dup upload and reads moved the version %v -> %v", v1, v)
	}

	if _, err := a.IngestUnique(mkSnap("h1", 2), sigFor("aa")); err != nil {
		t.Fatal(err)
	}
	v2 := a.Version()
	if res, err := a.GC(GCPolicy{MaxBlobs: 5}); err != nil || res.Removed != 0 {
		t.Fatalf("GC with nothing to remove: %+v, %v", res, err)
	}
	if v := a.Version(); v != v2 {
		t.Errorf("a GC sweep that removed nothing moved the version %v -> %v", v2, v)
	}
	if res, err := a.GC(GCPolicy{MaxBlobs: 1}); err != nil || res.Removed != 1 {
		t.Fatalf("GC: %+v, %v; want one removal", res, err)
	}
	v3 := a.Version()
	if v3.Records != v2.Records+1 {
		t.Errorf("GC removal moved the version %v -> %v, want one more record", v2, v3)
	}

	before := a.Buckets()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	after, vb := b.Snapshot()
	if vb.Records != v3.Records {
		t.Errorf("reopen replayed %d record(s), the live archive had folded %d", vb.Records, v3.Records)
	}
	if vb.Epoch == v3.Epoch || vb.String() == v3.String() {
		t.Errorf("reopen kept the version %v: a tag from the previous life would still match", vb)
	}
	if len(after) != len(before) || after[0].Count != before[0].Count {
		t.Errorf("reopen changed the buckets: %+v vs %+v", after, before)
	}
}

// TestSnapshotVersionLabelsItsList: list and version come from one
// lock hold. In an ingest-only archive every record adds one to some
// bucket's Count, so a snapshot is consistent exactly when its counts
// sum to its version's record count — however many ingests land while
// snapshots are taken. Run under -race by `make test-race`.
func TestSnapshotVersionLabelsItsList(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	const writers, perWriter = 4, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				n := w*perWriter + i
				if _, err := a.Ingest(mkSnap("h", n), sigFor([]string{"aa", "bb", "cc"}[n%3])); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false // one more snapshot, of the final state
		default:
		}
		list, v := a.Snapshot()
		var sum uint64
		for _, b := range list {
			sum += b.Count
		}
		if sum != v.Records {
			t.Fatalf("snapshot tagged %v lists %d occurrence(s)", v, sum)
		}
	}
	if v := a.Version(); v.Records != writers*perWriter {
		t.Errorf("final version %v, want %d records", v, writers*perWriter)
	}
}
