package shard

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
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
	if NewestTime(got) != NewestTime(single.Buckets()) {
		t.Errorf("merged NewestTime = %d, want %d", NewestTime(got), NewestTime(single.Buckets()))
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

// randomFleet draws a random journal — ingests of a small pool of
// blobs, so duplicates recur, with GC removals of resident blobs mixed
// in — and deals it to n shards by blob (every record of one blob goes
// to one shard, in journal order: healthy placement). It returns the
// per-shard bucket lists and the single-node list of the whole journal.
func randomFleet(t *testing.T, rng *rand.Rand, n int) (parts [][]archive.Bucket, single []archive.Bucket) {
	t.Helper()
	const blobs = 24
	W := archive.WindowWidth
	home := make([]int, blobs)
	for i := range home {
		home[i] = rng.Intn(n)
	}
	recOf := func(blob int) archive.JournalRecord {
		return archive.JournalRecord{
			V: 1, Op: archive.OpIngest, Sum: fmt.Sprintf("%064x", blob+1),
			Sig: fmt.Sprintf("sig%d", blob%5), Title: "t", Weak: true,
			Host: fmt.Sprintf("h%d", blob%4), Process: "app", Reason: "r",
			// Past WindowCap windows in all, so eviction is exercised.
			Time:  uint64(blob) * 4 * W,
			Bytes: int64(100 + blob),
		}
	}
	var journal []archive.JournalRecord
	shardRecs := make([][]archive.JournalRecord, n)
	resident := map[int]bool{}
	for i, steps := 0, 20+rng.Intn(60); i < steps; i++ {
		blob := rng.Intn(blobs)
		rec := recOf(blob)
		if resident[blob] && rng.Intn(5) == 0 {
			rec = archive.JournalRecord{V: 1, Op: archive.OpGC, Removed: []string{rec.Sum}}
		}
		resident[blob] = rec.Op == archive.OpIngest
		journal = append(journal, rec)
		shardRecs[home[blob]] = append(shardRecs[home[blob]], rec)
	}
	reduce := func(recs []archive.JournalRecord) []archive.Bucket {
		b, err := archive.IndexBytesOf(recs)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := archive.DecodeIndex(b)
		if err != nil {
			t.Fatal(err)
		}
		return idx.Buckets
	}
	for _, recs := range shardRecs {
		parts = append(parts, reduce(recs))
	}
	return parts, reduce(journal)
}

// bySig orders a bucket list the way the index file does, so a merged
// list (count desc) compares with a reduced one.
func bySig(buckets []archive.Bucket) []archive.Bucket {
	out := append([]archive.Bucket(nil), buckets...)
	sort.Slice(out, func(i, j int) bool { return out[i].Sig < out[j].Sig })
	return out
}

func deepCopy(t *testing.T, lists [][]archive.Bucket) [][]archive.Bucket {
	t.Helper()
	raw, err := json.Marshal(lists)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]archive.Bucket
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMergeProperties holds MergeBuckets to its algebra over random
// partitions of random journals. The gate keeps a shard's decoded list
// across rounds and merges it again whenever another shard changes, so
// the fold must leave its inputs exactly as it found them; and it must
// be the single-node reduction whatever order the lists come in,
// however they are grouped, and when fed its own output.
func TestMergeProperties(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		parts, single := randomFleet(t, rng, n)
		pristine := deepCopy(t, parts)

		merged := MergeBuckets(parts...)
		if !reflect.DeepEqual(parts, pristine) {
			t.Fatalf("seed %d: MergeBuckets changed its inputs", seed)
		}
		if got := bySig(merged); !reflect.DeepEqual(got, single) {
			t.Fatalf("seed %d: merge of %d shard(s) differs from the single-node reduction:\ngot  %+v\nwant %+v", seed, n, got, single)
		}

		// Commutative: any order of the lists.
		shuffled := append([][]archive.Bucket(nil), parts...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := MergeBuckets(shuffled...); !reflect.DeepEqual(got, merged) {
			t.Fatalf("seed %d: merge depends on the order of its lists", seed)
		}
		// Associative: a merged prefix stands in for its lists.
		cut := 1 + rng.Intn(n-1)
		grouped := append([][]archive.Bucket{MergeBuckets(parts[:cut]...)}, parts[cut:]...)
		if got := MergeBuckets(grouped...); !reflect.DeepEqual(got, merged) {
			t.Fatalf("seed %d: merge depends on how its lists are grouped (cut at %d)", seed, cut)
		}
		// Idempotent: merging a merged list alone returns it.
		if got := MergeBuckets(merged); !reflect.DeepEqual(got, merged) {
			t.Fatalf("seed %d: re-merging a merged list changed it", seed)
		}
		// A duplicated list (the same shard answered twice) adds its
		// tallies again — each landing is an ingest event — and nothing
		// else: no bucket, host, blob ref, seen time or window is
		// invented or listed twice.
		dup := rng.Intn(n)
		twice := MergeBuckets(append(append([][]archive.Bucket(nil), parts...), parts[dup])...)
		want := map[string]archive.Bucket{}
		for _, b := range merged {
			want[b.Sig] = b
		}
		extra := map[string]archive.Bucket{}
		for _, b := range parts[dup] {
			extra[b.Sig] = b
		}
		if len(twice) != len(merged) {
			t.Fatalf("seed %d: a duplicated list changed the bucket set", seed)
		}
		for _, got := range twice {
			w, again := want[got.Sig], extra[got.Sig]
			w.Count += again.Count
			w.Windows = slices.Clone(w.Windows)
			for i, win := range w.Windows {
				w.Windows[i].Count += again.WindowCount(win.Start, win.Start)
			}
			if !reflect.DeepEqual(got, w) {
				t.Fatalf("seed %d: duplicated list %d:\ngot  %+v\nwant %+v", seed, dup, got, w)
			}
		}
	}
}
