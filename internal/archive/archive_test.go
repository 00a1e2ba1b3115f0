package archive

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"traceback/internal/snap"
	"traceback/internal/telemetry"
)

// mkSnap builds a distinct synthetic snap; the same (host, n) always
// yields byte-identical content, so dedup is testable.
func mkSnap(host string, n int) *snap.Snap {
	return &snap.Snap{
		Host: host, Process: "app", PID: 100 + n, RuntimeID: uint64(n),
		Reason: "exception SIGSEGV", Signal: 11, Time: uint64(1000 * (n + 1)),
		Modules: []snap.ModuleInfo{{Name: "app", Checksum: fmt.Sprintf("c%02d", n), DAGCount: 1}},
		Buffers: []snap.BufferDump{{Kind: snap.BufMain, OwnerTID: 1, LastKnown: true,
			SubWords: 4, Raw: []byte{byte(n), 0, 0, 0}}},
	}
}

func sigFor(id string) Signature {
	return Signature{ID: id, Title: "bucket " + id, Weak: true}
}

func TestIngestDedupOneBlobTwoCounts(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	s := mkSnap("h1", 1)
	r1, err := a.Ingest(s, sigFor("aa"))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Dup || !r1.NewBucket {
		t.Fatalf("first ingest: %+v, want stored + new bucket", r1)
	}
	r2, err := a.Ingest(s, sigFor("aa"))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Dup || r2.NewBucket {
		t.Fatalf("second ingest: %+v, want dup, no new bucket", r2)
	}
	if r1.Sum != r2.Sum {
		t.Fatalf("content address changed: %s vs %s", r1.Sum, r2.Sum)
	}

	if got := a.NumBlobs(); got != 1 {
		t.Errorf("NumBlobs = %d, want 1", got)
	}
	b, err := a.Bucket("aa")
	if err != nil {
		t.Fatal(err)
	}
	if b.Count != 2 || len(b.Snaps) != 1 || b.Rep != r1.Sum {
		t.Errorf("bucket = %+v, want count 2, one blob, rep %s", b, r1.Sum[:8])
	}

	// The blob round-trips to an identical snap.
	got, err := a.LoadSnap(r1.Sum)
	if err != nil {
		t.Fatal(err)
	}
	sum2, _, err := ChecksumSnap(got)
	if err != nil {
		t.Fatal(err)
	}
	if sum2 != r1.Sum {
		t.Errorf("reloaded snap re-checksums to %s, want %s", sum2[:8], r1.Sum[:8])
	}
	// Blobs are snap files, as readable as every other one.
	fi, err := os.Stat(filepath.Join(a.Root(), "blobs", r1.Sum[:2], r1.Sum+".snap.json.gz"))
	if err != nil {
		t.Fatal(err)
	}
	if perm := fi.Mode().Perm(); perm != 0o644 {
		t.Errorf("blob mode %v, want 0644", perm)
	}
}

func TestBucketAggregation(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// Three occurrences of one fault from two hosts, one of another.
	for _, in := range []struct {
		s   *snap.Snap
		sig string
	}{
		{mkSnap("host-b", 1), "aa"},
		{mkSnap("host-a", 2), "aa"},
		{mkSnap("host-a", 2), "aa"}, // identical → dedup
		{mkSnap("host-c", 3), "bb"},
	} {
		if _, err := a.Ingest(in.s, sigFor(in.sig)); err != nil {
			t.Fatal(err)
		}
	}

	buckets := a.Buckets()
	if len(buckets) != 2 {
		t.Fatalf("%d buckets, want 2", len(buckets))
	}
	// Sorted by count desc: "aa" (3) first.
	if buckets[0].Sig != "aa" || buckets[0].Count != 3 {
		t.Errorf("top bucket = %s x%d, want aa x3", buckets[0].Sig, buckets[0].Count)
	}
	if got := strings.Join(buckets[0].Hosts, ","); got != "host-a,host-b" {
		t.Errorf("hosts = %q, want sorted unique host-a,host-b", got)
	}
	if buckets[0].FirstSeen != 2000 || buckets[0].LastSeen != 3000 {
		t.Errorf("seen range = %d..%d, want 2000..3000", buckets[0].FirstSeen, buckets[0].LastSeen)
	}
	// Rep is the earliest-seen blob (host-b at 2000 beats host-a at 3000).
	if len(buckets[0].Snaps) != 2 || buckets[0].Rep != buckets[0].Snaps[0].Sum {
		t.Errorf("rep %s is not the oldest blob", buckets[0].Rep[:8])
	}

	// Prefix resolution.
	if _, err := a.Bucket("a"); err != nil {
		t.Errorf("prefix a: %v", err)
	}
	if _, err := a.Bucket("zz"); err == nil {
		t.Error("unknown bucket resolved")
	}
}

// TestConcurrentIngestMatchesSequential is the warehouse's core
// determinism guarantee: 16-way concurrent ingest of a batch (with
// duplicates) produces byte-identical index state to one-by-one
// ingest, and exactly one blob per distinct snap.
func TestConcurrentIngestMatchesSequential(t *testing.T) {
	batch := make([]*snap.Snap, 0, 64)
	sigs := make([]Signature, 0, 64)
	for i := 0; i < 64; i++ {
		n := i % 8 // 8 distinct snaps, each 8 times
		batch = append(batch, mkSnap("h", n))
		sigs = append(sigs, sigFor(fmt.Sprintf("s%d", n%4))) // 4 buckets
	}

	seq, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	for i, s := range batch {
		if _, err := seq.Ingest(s, sigs[i]); err != nil {
			t.Fatal(err)
		}
	}

	conc, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer conc.Close()
	var wg sync.WaitGroup
	sem := make(chan struct{}, 16)
	errs := make([]error, len(batch))
	for i := range batch {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			_, errs[i] = conc.Ingest(batch[i], sigs[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	seqIdx, err := seq.IndexBytes()
	if err != nil {
		t.Fatal(err)
	}
	concIdx, err := conc.IndexBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqIdx, concIdx) {
		t.Errorf("concurrent index differs from sequential:\n--- seq ---\n%s\n--- conc ---\n%s", seqIdx, concIdx)
	}
	if got := conc.NumBlobs(); got != 8 {
		t.Errorf("NumBlobs = %d, want 8", got)
	}
}

// TestIngestRevalidatesStaleDedup pins the dedup-vs-GC interleaving
// deterministically: ensureBlob reports a dup (here forced through a
// pre-seeded completed flight entry, as if another ingest had just
// written the blob) but by the time the journal lock is taken the
// blob is neither in the state nor on disk — a GC sweep got between
// the two. Ingest must detect the stale hit and rewrite the blob
// before journaling a reference to it.
func TestIngestRevalidatesStaleDedup(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	s := mkSnap("h", 1)
	sum, _, err := ChecksumSnap(s)
	if err != nil {
		t.Fatal(err)
	}
	c := &flightCall{done: make(chan struct{}), size: 123}
	close(c.done)
	a.flight[sum] = c

	r, err := a.Ingest(s, sigFor("aa"))
	if err != nil {
		t.Fatal(err)
	}
	delete(a.flight, sum)
	if r.Dup {
		t.Error("stale dedup hit reported as dup; blob was gone")
	}
	if _, err := os.Stat(a.blobPath(sum)); err != nil {
		t.Errorf("blob not rewritten after stale dedup: %v", err)
	}
	if _, err := a.LoadSnap(sum); err != nil {
		t.Errorf("ingested snap unloadable: %v", err)
	}
}

// TestConcurrentIngestGCKeepsIndexResident hammers ingest of a small
// recurring snap set against sweeps that evict almost everything. An
// ingest can dedup onto a blob a concurrent sweep is condemning; the
// archive must resolve that race so the final index never references
// a blob that is gone from disk.
func TestConcurrentIngestGCKeepsIndexResident(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := a.Ingest(mkSnap("h", i%3), sigFor(fmt.Sprintf("s%d", i%3))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := a.GC(GCPolicy{MaxBlobs: 1}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	for _, b := range a.Buckets() {
		for _, ref := range b.Snaps {
			if _, err := os.Stat(a.blobPath(ref.Sum)); err != nil {
				t.Errorf("index references missing blob %s: %v", ref.Sum[:12], err)
			}
		}
	}
	live, err := a.IndexBytes()
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := a.RebuildIndexBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, rebuilt) {
		t.Error("journal rebuild differs from live index after ingest/gc races")
	}
}

func TestJournalRebuildAndReopen(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := a.Ingest(mkSnap("h", i), sigFor(fmt.Sprintf("s%d", i%3))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.GC(GCPolicy{MaxBlobs: 4}); err != nil {
		t.Fatal(err)
	}

	live, err := a.IndexBytes()
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := a.RebuildIndexBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, rebuilt) {
		t.Errorf("journal rebuild differs from live index:\n--- live ---\n%s\n--- rebuilt ---\n%s", live, rebuilt)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: replay must reproduce the same index; the flushed
	// index.json must already hold those bytes.
	onDisk, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, live) {
		t.Error("flushed index.json differs from live index bytes")
	}
	a2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	reopened, err := a2.IndexBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reopened, live) {
		t.Error("reopened index differs from pre-close index")
	}

	// A crash mid-append (unterminated trailing line) must not stop
	// the archive from opening; complete records all replay.
	j, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.WriteString(`{"v":1,"op":"ingest","sum":"deadbeef","sig":"s9"`); err != nil {
		t.Fatal(err)
	}
	j.Close()
	a3, err := Open(dir)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	tolerant, err := a3.IndexBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tolerant, live) {
		t.Error("torn journal tail changed the replayed index")
	}

	// The torn tail must be truncated away, not just skipped on replay:
	// the journal reopens with O_APPEND, so a surviving partial line
	// would glue onto the next ingest's record and leave the journal
	// permanently unparseable.
	if _, err := a3.Ingest(mkSnap("h", 9), sigFor("s9")); err != nil {
		t.Fatal(err)
	}
	afterCrash, err := a3.IndexBytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := a3.Close(); err != nil {
		t.Fatal(err)
	}
	a4, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after post-crash ingest: %v", err)
	}
	defer a4.Close()
	reopened2, err := a4.IndexBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reopened2, afterCrash) {
		t.Error("post-crash ingest lost on reopen")
	}
}

func TestGCPolicies(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var sums []string
	for i := 0; i < 6; i++ { // times 1000..6000
		r, err := a.Ingest(mkSnap("h", i), sigFor(fmt.Sprintf("s%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, r.Sum)
	}

	// Age: newest is 6000; MaxAge 3000 evicts times 1000 and 2000.
	res, err := a.GC(GCPolicy{MaxAge: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 2 {
		t.Fatalf("age gc removed %d, want 2", res.Removed)
	}
	if _, err := a.LoadSnap(sums[0]); err == nil {
		t.Error("evicted blob still loadable")
	}
	if _, err := a.LoadSnap(sums[5]); err != nil {
		t.Errorf("surviving blob unloadable: %v", err)
	}
	// Evicted buckets keep their history but lose their rep.
	b, err := a.Bucket("s0")
	if err != nil {
		t.Fatal(err)
	}
	if b.Count != 1 || b.Rep != "" || len(b.Snaps) != 0 {
		t.Errorf("evicted bucket = %+v, want count kept, rep cleared", b)
	}

	// Count bound: keep 2 of the remaining 4.
	if res, err = a.GC(GCPolicy{MaxBlobs: 2}); err != nil || res.Removed != 2 {
		t.Fatalf("count gc = %+v, %v; want 2 removed", res, err)
	}
	if got := a.NumBlobs(); got != 2 {
		t.Fatalf("NumBlobs = %d, want 2", got)
	}

	// Bytes bound: shrink to at most one blob's bytes.
	refs := a.Buckets()
	var oneBlob int64
	for _, b := range refs {
		for _, r := range b.Snaps {
			oneBlob = r.Bytes
		}
	}
	if _, err := a.GC(GCPolicy{MaxBytes: oneBlob}); err != nil {
		t.Fatal(err)
	}
	if got := a.StoredBytes(); got > oneBlob {
		t.Errorf("StoredBytes = %d, want <= %d", got, oneBlob)
	}

	// Rebuild equivalence survives all the GC records.
	live, _ := a.IndexBytes()
	rebuilt, err := a.RebuildIndexBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, rebuilt) {
		t.Error("rebuild differs after gc records")
	}
}

func TestGCKeepReps(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < 4; i++ {
		if _, err := a.Ingest(mkSnap("h", i), sigFor("only")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.GC(GCPolicy{MaxBlobs: 1, KeepReps: true}); err != nil {
		t.Fatal(err)
	}
	b, err := a.Bucket("only")
	if err != nil {
		t.Fatal(err)
	}
	if b.Rep == "" {
		t.Fatal("representative evicted despite KeepReps")
	}
	if _, err := a.LoadSnap(b.Rep); err != nil {
		t.Errorf("representative unloadable: %v", err)
	}
}

func TestTelemetry(t *testing.T) {
	reg := telemetry.New()
	a, err := OpenWith(t.TempDir(), Options{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	s := mkSnap("h", 1)
	if _, err := a.Ingest(s, sigFor("aa")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Ingest(s, sigFor("aa")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.GC(GCPolicy{MaxBlobs: 0}); err != nil { // no-op sweep
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	expo := buf.String()
	for _, want := range []string{
		"arch_ingested_total 2",
		"arch_deduped_total 1",
		"arch_buckets 1",
		"arch_blobs 1",
		"arch_gc_runs_total 1",
		"arch_ingest_nanos_count 2",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q:\n%s", want, expo)
		}
	}
	// New buckets land in the flight recorder.
	evs := reg.FlightRecorder().Events()
	found := false
	for _, e := range evs {
		if e.Kind == "bucket-new" {
			found = true
		}
	}
	if !found {
		t.Errorf("no bucket-new flight event in %+v", evs)
	}
}

func TestJournalDecodeErrors(t *testing.T) {
	// Strict decode: a malformed line is an inspectable error.
	_, err := DecodeJournal(strings.NewReader("{\"v\":1,\"op\":\"ingest\"\n"))
	if !errors.Is(err, ErrJournalSyntax) {
		t.Errorf("syntax err = %v, want ErrJournalSyntax", err)
	}
	_, err = DecodeJournal(strings.NewReader("{\"v\":9,\"op\":\"ingest\",\"sum\":\"x\",\"sig\":\"y\"}\n"))
	if !errors.Is(err, ErrJournalVersion) {
		t.Errorf("version err = %v, want ErrJournalVersion", err)
	}
	_, err = DecodeJournal(strings.NewReader("{\"v\":1,\"op\":\"bogus\"}\n"))
	if !errors.Is(err, ErrJournalSyntax) {
		t.Errorf("op err = %v, want ErrJournalSyntax", err)
	}
	if _, err := DecodeIndex([]byte("{")); !errors.Is(err, ErrIndexSyntax) {
		t.Errorf("index err = %v, want ErrIndexSyntax", err)
	}
}

// TestIngestUniqueIdempotent: re-ingesting identical content through
// IngestUnique journals exactly once — the collection plane's retry
// safety — while plain Ingest keeps counting occurrences.
func TestIngestUniqueIdempotent(t *testing.T) {
	root := t.TempDir()
	a, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	s := mkSnap("h1", 1)
	r1, err := a.IngestUnique(s, sigFor("sig-a"))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Dup {
		t.Error("first IngestUnique reported dup")
	}
	if !a.Has(r1.Sum) {
		t.Errorf("Has(%s) false after ingest", r1.Sum[:12])
	}
	for i := 0; i < 3; i++ {
		r, err := a.IngestUnique(s, sigFor("sig-a"))
		if err != nil {
			t.Fatal(err)
		}
		if !r.Dup || r.Sum != r1.Sum || r.Bytes != r1.Bytes {
			t.Errorf("replay %d: got %+v, want dup of %s (%d bytes)", i, r, r1.Sum[:12], r1.Bytes)
		}
	}
	f, err := os.Open(filepath.Join(root, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := DecodeJournal(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("journal holds %d record(s), want exactly 1", len(recs))
	}
	b, err := a.Bucket("sig-a")
	if err != nil {
		t.Fatal(err)
	}
	if b.Count != 1 {
		t.Errorf("bucket count %d, want 1", b.Count)
	}
}

// TestIngestUniqueConcurrentSameContent: N racing IngestUnique calls
// for one snap land one blob and one journal entry, no matter how the
// blob write and the journal lock interleave.
func TestIngestUniqueConcurrentSameContent(t *testing.T) {
	root := t.TempDir()
	a, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	s := mkSnap("h9", 9)
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = a.IngestUnique(s, sigFor("sig-r"))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("racer %d: %v", i, err)
		}
	}
	if got := a.NumBlobs(); got != 1 {
		t.Errorf("%d blobs resident, want 1", got)
	}
	f, err := os.Open(filepath.Join(root, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := DecodeJournal(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("journal holds %d record(s), want exactly 1", len(recs))
	}
	if b, err := a.Bucket("sig-r"); err != nil || b.Count != 1 {
		t.Errorf("bucket = %+v, %v; want count 1", b, err)
	}
}

// TestHasAfterGC: a GC'd blob is no longer Has — the precheck answers
// 404 and the fleet re-uploads the evidence.
func TestHasAfterGC(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	r1, err := a.Ingest(mkSnap("h1", 1), sigFor("s1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Ingest(mkSnap("h1", 2), sigFor("s2")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.GC(GCPolicy{MaxBlobs: 1}); err != nil {
		t.Fatal(err)
	}
	if a.Has(r1.Sum) {
		t.Errorf("oldest blob %s still Has after gc to 1 blob", r1.Sum[:12])
	}
	// Re-ingesting after eviction journals again (the evidence returns).
	r2, err := a.IngestUnique(mkSnap("h1", 1), sigFor("s1"))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Dup {
		t.Error("re-ingest after gc reported dup")
	}
	if !a.Has(r1.Sum) {
		t.Error("blob not resident after re-ingest")
	}
}

func TestFindBucketPrefixResolution(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for n := 0; n < 3; n++ {
		s := mkSnap("h1", n)
		if _, err := a.IngestUnique(s, SignSnap(s, nil)); err != nil {
			t.Fatal(err)
		}
	}
	buckets := a.Buckets()
	full := buckets[0].Sig
	got, err := FindBucket(buckets, full[:6])
	if err != nil {
		t.Fatalf("prefix resolve: %v", err)
	}
	if got.Sig != full {
		t.Errorf("resolved %q, want %q", got.Sig, full)
	}
	if _, err := FindBucket(buckets, "nope"); err == nil {
		t.Error("unknown prefix resolved")
	}
	if _, err := FindBucket(buckets, ""); err == nil {
		t.Error("empty prefix resolved despite being ambiguous")
	}
}
