package shard

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"traceback/internal/archive"
	"traceback/internal/snap"
)

// mkSnap builds a synthetic snap. bucket selects the (weak) crash
// signature, host and tm vary the content so each call is a distinct
// blob inside its bucket.
func mkSnap(bucket int, host string, tm uint64) *snap.Snap {
	return &snap.Snap{
		Host: host, Process: "app", PID: 100, RuntimeID: 1,
		Reason: "exception SIGSEGV", Signal: 11, Time: tm,
		Modules: []snap.ModuleInfo{{Name: "app", Checksum: fmt.Sprintf("c%02d", bucket), DAGCount: 1}},
		Buffers: []snap.BufferDump{{Kind: snap.BufMain, OwnerTID: 1, LastKnown: true,
			SubWords: 4, Raw: []byte{byte(bucket), 0, 0, 0}}},
	}
}

func openArch(t *testing.T, dir string) *archive.Archive {
	t.Helper()
	a, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

// fleetSnaps builds a varied fleet: several buckets, several hosts,
// times spanning more than WindowCap windows so merge must re-apply
// window eviction.
func fleetSnaps() []*snap.Snap {
	var out []*snap.Snap
	W := archive.WindowWidth
	for i := 0; i < 40; i++ {
		bucket := i % 4
		host := fmt.Sprintf("h%d", i%5)
		tm := uint64(i) * 3 * W / 2 // every 1.5 windows
		out = append(out, mkSnap(bucket, host, tm))
	}
	// A late burst far past the horizon, so bucket 0's earliest windows
	// must be evicted from the merged view exactly as a single node
	// would have evicted them.
	late := uint64(archive.WindowCap+8) * W
	for i := 0; i < 4; i++ {
		out = append(out, mkSnap(0, "late", late+uint64(i)*W))
	}
	return out
}

// TestMergeEqualsSingleNodeReduction splits a fleet across 3 shard
// archives by ring placement and checks MergeBuckets reproduces the
// single-node bucket list exactly — the pure-fold property the gate
// relies on.
func TestMergeEqualsSingleNodeReduction(t *testing.T) {
	snaps := fleetSnaps()
	ring := mustRing(t, 3)

	single := openArch(t, filepath.Join(t.TempDir(), "single"))
	shards := make([]*archive.Archive, 3)
	for i := range shards {
		shards[i] = openArch(t, filepath.Join(t.TempDir(), fmt.Sprintf("s%d", i)))
	}
	for _, s := range snaps {
		sig := archive.SignSnap(s, nil)
		if _, err := single.IngestUnique(s, sig); err != nil {
			t.Fatal(err)
		}
		sum, _, err := archive.ChecksumSnap(s)
		if err != nil {
			t.Fatal(err)
		}
		home, err := ring.Place(sum)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := shards[home].IngestUnique(s, sig); err != nil {
			t.Fatal(err)
		}
	}

	var lists [][]archive.Bucket
	occupied := 0
	for _, sh := range shards {
		b := sh.Buckets()
		if len(b) > 0 {
			occupied++
		}
		lists = append(lists, b)
	}
	if occupied < 2 {
		t.Fatalf("placement sent the whole fleet to %d shard(s); the merge test needs a real split", occupied)
	}

	got := MergeBuckets(lists...)
	want := single.Buckets()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merged buckets differ from single-node reduction:\ngot  %+v\nwant %+v", got, want)
	}
	if NewestTime(got) != single.NewestTime() {
		t.Errorf("merged NewestTime = %d, want %d", NewestTime(got), single.NewestTime())
	}
}

// TestMergeDedupsFailoverCopies: the same content resident on two
// shards (an agent failover landed it off its home shard, then a
// retry landed it home) merges to one blob ref with the occurrence
// count reflecting both journaled landings — nothing lost, nothing
// double-listed.
func TestMergeDedupsFailoverCopies(t *testing.T) {
	s := mkSnap(1, "h1", 1000)
	sig := archive.SignSnap(s, nil)
	a := openArch(t, filepath.Join(t.TempDir(), "a"))
	b := openArch(t, filepath.Join(t.TempDir(), "b"))
	if _, err := a.IngestUnique(s, sig); err != nil {
		t.Fatal(err)
	}
	if _, err := b.IngestUnique(s, sig); err != nil {
		t.Fatal(err)
	}

	merged := MergeBuckets(a.Buckets(), b.Buckets())
	if len(merged) != 1 {
		t.Fatalf("merged %d bucket(s), want 1", len(merged))
	}
	m := merged[0]
	if len(m.Snaps) != 1 {
		t.Errorf("merged bucket lists %d blob ref(s), want 1 (same content address)", len(m.Snaps))
	}
	if m.Count != 2 {
		t.Errorf("merged count = %d, want 2 (each landing was a journaled ingest)", m.Count)
	}
	if m.Rep != m.Snaps[0].Sum {
		t.Errorf("merged rep %q is not the earliest resident snap %q", m.Rep, m.Snaps[0].Sum)
	}
}
