// Package archive is the snap warehouse: durable, deduplicated,
// fleet-queryable storage for TraceBack snapshots. The paper's §6
// observes snaps compress ~10x "for ease of archiving or
// transmission" precisely so support organizations can keep them;
// this package is that support-side store. Snaps are held as
// content-addressed gzip blobs (checksummed over their canonical JSON
// so identical crashes from different hosts store once), every ingest
// is journaled append-only, and each snap is fingerprinted by its
// crash signature (signature.go) into a bucket — the unit of triage:
// "which fault is hurting the fleet most" is a sort of the buckets by
// occurrence count.
package archive

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"traceback/internal/snap"
	"traceback/internal/telemetry"
)

const (
	journalName = "journal.jsonl"
	blobDirName = "blobs"
	blobSuffix  = ".snap.json.gz"
)

// Options configures an archive.
type Options struct {
	// Telemetry is the registry arch_ metrics land in (nil: private
	// registry).
	Telemetry *telemetry.Registry
}

// Archive is an open snap warehouse rooted at a directory:
//
//	root/journal.jsonl          append-only system of record
//	root/blobs/ab/<sum>.snap.json.gz  content-addressed snaps
//
// The index is the journal's reduction, rebuilt by every Open.
type Archive struct {
	root    string
	journal *os.File
	epoch   uint64 // random per Open; see Version

	mu sync.Mutex // guards st and journal appends
	st *state

	fmu    sync.Mutex // guards flight
	flight map[string]*flightCall

	reg *telemetry.Registry
	rec *telemetry.Recorder
	met metrics
}

// flightCall coalesces concurrent blob writes for one checksum.
type flightCall struct {
	done chan struct{}
	size int64
	err  error
}

type metrics struct {
	ingested    *telemetry.Counter
	deduped     *telemetry.Counter
	gcRuns      *telemetry.Counter
	bytesOut    *telemetry.Counter
	ingestNanos *telemetry.Histogram
}

// Open opens (creating if needed) the archive at root and replays its
// journal. An unterminated final journal line — the footprint of a
// crash mid-append — is dropped and truncated away; everything before
// it is intact, and the matching blob is simply re-ingestable.
func Open(root string) (*Archive, error) { return OpenWith(root, Options{}) }

// OpenWith opens the archive with explicit options.
func OpenWith(root string, opts Options) (*Archive, error) {
	if err := os.MkdirAll(filepath.Join(root, blobDirName), 0o755); err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	jpath := filepath.Join(root, journalName)
	st := newState()
	if f, err := os.Open(jpath); err == nil {
		recs, goodLen, torn, derr := decodeJournalLines(f, true)
		f.Close()
		if derr != nil {
			return nil, fmt.Errorf("archive: replaying %s: %w", jpath, derr)
		}
		if torn {
			// Cut the torn tail off the file, not just the replay: the
			// journal reopens with O_APPEND below, and appending after a
			// partial line would glue two records into one invalid line
			// that every later Open rejects.
			if terr := os.Truncate(jpath, goodLen); terr != nil {
				return nil, fmt.Errorf("archive: truncating torn journal tail: %w", terr)
			}
		}
		st = reduceJournal(recs)
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("archive: %w", err)
	}
	var epoch [8]byte
	if _, err := rand.Read(epoch[:]); err != nil {
		return nil, fmt.Errorf("archive: drawing an epoch: %w", err)
	}
	j, err := os.OpenFile(jpath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	a := &Archive{
		root:    root,
		journal: j,
		epoch:   binary.BigEndian.Uint64(epoch[:]),
		st:      st,
		flight:  map[string]*flightCall{},
	}
	a.bindTelemetry(opts.Telemetry)
	return a, nil
}

func (a *Archive) bindTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		reg = telemetry.New()
	}
	a.reg = reg
	a.rec = reg.Recorder(256)
	a.met = metrics{
		ingested:    reg.Counter("arch_ingested_total", "snaps ingested into the warehouse"),
		deduped:     reg.Counter("arch_deduped_total", "ingests deduplicated onto an existing blob"),
		gcRuns:      reg.Counter("arch_gc_runs_total", "retention sweeps executed"),
		bytesOut:    reg.Counter("arch_bytes_written_total", "compressed blob bytes written"),
		ingestNanos: reg.Histogram("arch_ingest_nanos", "per-snap ingest latency (ns)", telemetry.DurationBuckets()),
	}
	reg.GaugeFunc("arch_buckets", "distinct crash-signature buckets", func() int64 {
		a.mu.Lock()
		defer a.mu.Unlock()
		return int64(len(a.st.buckets))
	})
	reg.GaugeFunc("arch_blobs", "content-addressed blobs resident", func() int64 {
		a.mu.Lock()
		defer a.mu.Unlock()
		return int64(len(a.st.blobs))
	})
	reg.GaugeFunc("arch_bytes_stored", "compressed blob bytes resident", func() int64 {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.st.bytes
	})
}

// Metrics returns the archive's registry.
func (a *Archive) Metrics() *telemetry.Registry { return a.reg }

// Root returns the archive's directory.
func (a *Archive) Root() string { return a.root }

func (a *Archive) blobPath(sum string) string {
	return filepath.Join(a.root, blobDirName, sum[:2], sum+blobSuffix)
}

// ChecksumSnap computes a snap's content address: SHA-256 over its
// canonical (uncompressed) JSON, so the key is independent of the
// compression level the blob happens to be stored at.
func ChecksumSnap(s *snap.Snap) (sum string, canonical []byte, err error) {
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		return "", nil, fmt.Errorf("archive: encoding snap: %w", err)
	}
	return SumCanonical(buf.Bytes()), buf.Bytes(), nil
}

// SumCanonical is the content address of canonical snap JSON (the
// bytes Snap.Save writes): its SHA-256 in lowercase hex.
func SumCanonical(canonical []byte) string {
	h := sha256.Sum256(canonical)
	return hex.EncodeToString(h[:])
}

// IngestResult reports what one ingest did.
type IngestResult struct {
	Sum       string
	Sig       Signature
	Dup       bool // blob already present; only the bucket count moved
	NewBucket bool // first occurrence of this crash signature
	Bytes     int64
}

// Ingest stores one snap under its crash signature: content-address,
// write the blob if it is new (single-flight across goroutines,
// atomic rename on disk), journal the event, fold it into the bucket.
// Safe for concurrent use; concurrent ingest of identical snaps
// stores exactly one blob and counts every occurrence.
func (a *Archive) Ingest(s *snap.Snap, sig Signature) (IngestResult, error) {
	sum, canonical, err := ChecksumSnap(s)
	if err != nil {
		return IngestResult{}, err
	}
	return a.ingestCanonical(sum, canonical, s, sig, false)
}

// IngestUnique ingests s only if its content is not already resident:
// a snap whose checksum matches a stored blob returns Dup without
// touching the journal. This is the network collection plane's
// idempotency primitive — an agent that re-uploads after a lost
// response (or N agents racing on the same crash) lands exactly one
// journal entry, so retry is always safe. Race-free against
// concurrent IngestUnique of the same new content: the residency
// check happens under the same lock that orders journal appends.
func (a *Archive) IngestUnique(s *snap.Snap, sig Signature) (IngestResult, error) {
	sum, canonical, err := ChecksumSnap(s)
	if err != nil {
		return IngestResult{}, err
	}
	return a.ingestCanonical(sum, canonical, s, sig, true)
}

// IngestCanonical is IngestUnique for a caller that already holds the
// snap's canonical bytes (what s.Save writes) and their address
// (SumCanonical of them): it trusts both and encodes and hashes
// nothing. The collection daemon is that caller — it decodes an
// upload once, refuses a body that is not s's canonical encoding, and
// hashes the body it verified. The blob is still framed here, as
// snap.WriteGzip of canonical, never stored as received: stored bytes
// do not depend on the gzip level of whoever sent them.
func (a *Archive) IngestCanonical(sum string, canonical []byte, s *snap.Snap, sig Signature) (IngestResult, error) {
	return a.ingestCanonical(sum, canonical, s, sig, true)
}

// ingestCanonical is the one way a snap reaches the warehouse. With
// unique set, content already resident returns Dup and journals
// nothing (IngestUnique's contract).
func (a *Archive) ingestCanonical(sum string, canonical []byte, s *snap.Snap, sig Signature, unique bool) (IngestResult, error) {
	t0 := time.Now()
	defer func() { a.met.ingestNanos.Observe(uint64(time.Since(t0))) }()

	if unique {
		// Fast path: already resident means nothing to write or journal.
		if ref, ok := a.ref(sum); ok {
			return IngestResult{Sum: sum, Sig: sig, Dup: true, Bytes: ref.Bytes}, nil
		}
	}
	dup, size, err := a.ensureBlob(sum, canonical)
	if err != nil {
		return IngestResult{}, err
	}

	a.mu.Lock()
	if ref, resident := a.st.blobs[sum]; unique && resident {
		// A concurrent ingest journaled this content between the fast
		// path and here; this call must not add a second entry.
		size = ref.Bytes
		a.mu.Unlock()
		return IngestResult{Sum: sum, Sig: sig, Dup: true, Bytes: size}, nil
	} else if dup && !resident {
		// The dedup hit may be stale: between ensureBlob's check and
		// this critical section a GC sweep — which journals, drops
		// state, and unlinks all under a.mu — can have condemned and
		// removed the blob. Re-validate on disk and rewrite while
		// holding the lock: the race is rare enough that the write
		// under a.mu is fine, and holding it keeps the next sweep from
		// condemning the blob before the journal records this ingest.
		if _, serr := os.Stat(a.blobPath(sum)); serr != nil {
			sz, werr := a.writeBlob(a.blobPath(sum), canonical)
			if werr != nil {
				a.mu.Unlock()
				return IngestResult{}, werr
			}
			dup, size = false, sz
			a.met.bytesOut.Add(uint64(sz))
		}
	}
	rec := JournalRecord{
		V: formatVersion, Op: OpIngest, Sum: sum,
		Sig: sig.ID, Title: sig.Title, Weak: sig.Weak,
		Host: s.Host, Process: s.Process, Reason: s.Reason,
		Time: s.Time, Bytes: size,
	}
	line, err := encodeJournal(&rec)
	if err != nil {
		a.mu.Unlock()
		return IngestResult{}, err
	}
	if _, werr := a.journal.Write(line); werr != nil {
		a.mu.Unlock()
		return IngestResult{}, fmt.Errorf("archive: journal append: %w", werr)
	}
	newBucket := a.st.apply(&rec)
	a.mu.Unlock()

	a.met.ingested.Inc()
	if dup {
		a.met.deduped.Inc()
	}
	if newBucket {
		a.rec.Record(s.Time, "bucket-new", sig.ID+" "+sig.Title)
	}
	return IngestResult{Sum: sum, Sig: sig, Dup: dup, NewBucket: newBucket, Bytes: size}, nil
}

// ensureBlob materializes the blob for sum unless it already exists.
// The first caller for a given sum compresses and writes (tmp file +
// rename, so a crash never leaves a partial blob at the final path);
// concurrent callers for the same sum wait for it and report a dup.
func (a *Archive) ensureBlob(sum string, canonical []byte) (dup bool, size int64, err error) {
	path := a.blobPath(sum)
	a.fmu.Lock()
	if c, ok := a.flight[sum]; ok {
		a.fmu.Unlock()
		<-c.done
		if c.err != nil {
			return false, 0, c.err
		}
		return true, c.size, nil
	}
	if fi, serr := os.Stat(path); serr == nil {
		a.fmu.Unlock()
		return true, fi.Size(), nil
	}
	c := &flightCall{done: make(chan struct{})}
	a.flight[sum] = c
	a.fmu.Unlock()

	c.size, c.err = a.writeBlob(path, canonical)
	a.fmu.Lock()
	delete(a.flight, sum)
	a.fmu.Unlock()
	close(c.done)
	if c.err == nil {
		a.met.bytesOut.Add(uint64(c.size))
	}
	return false, c.size, c.err
}

// writeBlob gzips the exact canonical bytes the content address was
// computed over (LoadAuto reads it back) into a snap file.
func (a *Archive) writeBlob(path string, canonical []byte) (int64, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, fmt.Errorf("archive: %w", err)
	}
	size, err := snap.WriteFile(path, func(w io.Writer) error { return snap.WriteGzip(w, canonical) })
	if err != nil {
		return 0, fmt.Errorf("archive: writing blob: %w", err)
	}
	return size, nil
}

// LoadSnap reads a stored snap back by its content address.
func (a *Archive) LoadSnap(sum string) (*snap.Snap, error) {
	s, err := snap.LoadFile(a.blobPath(sum))
	if err != nil {
		return nil, fmt.Errorf("archive: blob %s: %w", sum, err)
	}
	return s, nil
}

// OpenBlob opens the stored gzip blob for sum as-is, for streaming it
// over the wire without a decode/re-encode round trip (the collection
// daemon's GET /v1/blob path, which the fan-out gate uses to pull
// exemplars off their home shard). The blob must be resident; a
// GC-removed or never-stored sum is an error even if a stale file
// lingers on disk.
func (a *Archive) OpenBlob(sum string) (io.ReadCloser, int64, error) {
	r, ok := a.ref(sum)
	if !ok {
		return nil, 0, fmt.Errorf("archive: blob %s is not resident", sum)
	}
	f, err := os.Open(a.blobPath(sum))
	if err != nil {
		return nil, 0, fmt.Errorf("archive: blob %s: %w", sum, err)
	}
	return f, r.Bytes, nil
}

// JournalPath is the on-disk location of the append-only journal —
// exposed so fleet-level checkers can union shard journals and compare
// the reduction against a single node's (see IndexBytesOf).
func (a *Archive) JournalPath() string {
	return filepath.Join(a.root, journalName)
}

// Version names one state of one open archive's index: Epoch is drawn
// at random by every Open, Records counts the journal records folded
// into the index since the journal began. Every change to what Buckets
// returns passes through state.apply, which bumps Records, so two
// equal versions label equal bucket lists. The epoch is what keeps
// that true across a restart: a reopened journal may have lost a torn
// tail, or been restored from a copy, and can reach a Records count
// its previous life also passed through with different content.
type Version struct {
	Epoch   uint64
	Records uint64
}

// String renders the version as "<epoch hex>-<records>". Compare whole
// strings only; the order of two versions means nothing.
func (v Version) String() string { return fmt.Sprintf("%016x-%d", v.Epoch, v.Records) }

// Version reports the current index version without touching the
// buckets — the cheap half of a conditional read.
func (a *Archive) Version() Version {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Version{Epoch: a.epoch, Records: a.st.applied}
}

// Buckets returns every bucket, most occurrences first (count desc,
// signature asc) — the `tbstore top` order.
func (a *Archive) Buckets() []Bucket {
	out, _ := a.Snapshot()
	return out
}

// Snapshot returns Buckets together with the version of exactly that
// list: both are read under one hold of the archive lock, so the
// version is never newer than the list it labels.
func (a *Archive) Snapshot() ([]Bucket, Version) {
	a.mu.Lock()
	v := Version{Epoch: a.epoch, Records: a.st.applied}
	out := make([]Bucket, 0, len(a.st.buckets))
	for _, b := range a.st.buckets {
		out = append(out, cloneBucket(b))
	}
	a.mu.Unlock()
	sortTriage(out)
	return out, v
}

// Bucket resolves a signature, accepting any unambiguous prefix (CLI
// convenience, like abbreviated git hashes).
func (a *Archive) Bucket(sigPrefix string) (Bucket, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if b, ok := a.st.buckets[sigPrefix]; ok {
		return cloneBucket(b), nil
	}
	shallow := make([]Bucket, 0, len(a.st.buckets))
	for _, b := range a.st.buckets {
		shallow = append(shallow, *b)
	}
	b, err := FindBucket(shallow, sigPrefix)
	if err != nil {
		return Bucket{}, err
	}
	return cloneBucket(&b), nil
}

// FindBucket resolves a signature or unambiguous signature prefix
// against a bucket list. It is the one resolver behind Archive.Bucket
// and the fan-out gate's merged snapshot, so an unknown or ambiguous
// prefix reads the same from a single daemon and through a gate.
func FindBucket(buckets []Bucket, sigPrefix string) (Bucket, error) {
	found := -1
	for i := range buckets {
		if buckets[i].Sig == sigPrefix {
			return buckets[i], nil
		}
		if strings.HasPrefix(buckets[i].Sig, sigPrefix) {
			if found >= 0 {
				return Bucket{}, fmt.Errorf("archive: signature prefix %q is ambiguous", sigPrefix)
			}
			found = i
		}
	}
	if found < 0 {
		return Bucket{}, fmt.Errorf("archive: no bucket %q", sigPrefix)
	}
	return buckets[found], nil
}

// Has reports whether the blob for sum is resident (stored and not
// removed by GC) — the dedup precheck the collection daemon answers
// with HEAD /v1/blob/{sum}.
func (a *Archive) Has(sum string) bool {
	_, ok := a.ref(sum)
	return ok
}

// ref copies the resident BlobRef for sum, if any.
func (a *Archive) ref(sum string) (BlobRef, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if r, ok := a.st.blobs[sum]; ok {
		return *r, true
	}
	return BlobRef{}, false
}

// NumBuckets reports the number of distinct crash signatures.
func (a *Archive) NumBuckets() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.st.buckets)
}

// NumBlobs reports resident blob count.
func (a *Archive) NumBlobs() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.st.blobs)
}

// StoredBytes reports resident compressed bytes.
func (a *Archive) StoredBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.st.bytes
}

// IndexBytes renders the live index in its canonical byte form.
func (a *Archive) IndexBytes() ([]byte, error) {
	a.mu.Lock()
	idx := a.st.index()
	a.mu.Unlock()
	return encodeIndex(idx)
}

// RebuildIndexBytes re-reads the journal from disk and reduces it
// from scratch — the recovery path, and the cross-check that the live
// index and the journal agree byte for byte.
func (a *Archive) RebuildIndexBytes() ([]byte, error) {
	f, err := os.Open(filepath.Join(a.root, journalName))
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	defer f.Close()
	recs, _, _, err := decodeJournalLines(f, true)
	if err != nil {
		return nil, err
	}
	return encodeIndex(reduceJournal(recs).index())
}

// Flush syncs the journal to disk.
func (a *Archive) Flush() error {
	if err := a.journal.Sync(); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	return nil
}

// Close flushes and closes the journal.
func (a *Archive) Close() error {
	if err := a.Flush(); err != nil {
		a.journal.Close()
		return err
	}
	return a.journal.Close()
}

// GCPolicy bounds the store. Zero fields mean "no bound". Ages are in
// snap-time units (VM cycles), measured against the newest snap held.
type GCPolicy struct {
	MaxAge   uint64 // evict blobs older than newest-MaxAge
	MaxBlobs int    // keep at most this many blobs
	MaxBytes int64  // keep at most this many compressed bytes
	// KeepReps protects each bucket's representative snap from
	// count/byte eviction (age still wins), so `show` keeps working
	// for every known fault.
	KeepReps bool
}

// GCResult reports one sweep.
type GCResult struct {
	Removed int
	Bytes   int64
}

// GC applies the retention policy: oldest blobs first (by snap time,
// then checksum — fully deterministic), journaled as a single gc
// record so replay reproduces the exact removal.
func (a *Archive) GC(pol GCPolicy) (GCResult, error) {
	a.mu.Lock()
	victims := a.planGC(pol)
	var res GCResult
	if len(victims) == 0 {
		a.mu.Unlock()
		a.met.gcRuns.Inc()
		return res, nil
	}
	sums := make([]string, len(victims))
	for i, v := range victims {
		sums[i] = v.Sum
		res.Bytes += v.Bytes
	}
	res.Removed = len(victims)
	rec := JournalRecord{V: formatVersion, Op: OpGC, Removed: sums}
	line, err := encodeJournal(&rec)
	if err != nil {
		a.mu.Unlock()
		return GCResult{}, err
	}
	if _, werr := a.journal.Write(line); werr != nil {
		a.mu.Unlock()
		return GCResult{}, fmt.Errorf("archive: journal append: %w", werr)
	}
	a.st.apply(&rec)

	// Blob unlink after the journal records the decision (a crash
	// between the two leaves only an already-condemned blob behind,
	// which replay removes from the index anyway) but still under
	// a.mu, so an ingest that stat'd one of these blobs alive cannot
	// journal a reference to it before it disappears — Ingest
	// re-validates its dedup hit under the same lock. Unlink failures
	// do not stop the sweep: every victim is already journaled as
	// removed and gone from the state, so skipping the rest would leak
	// them permanently (planGC can never select them again).
	var unlinkErrs []error
	for _, sum := range sums {
		if err := os.Remove(a.blobPath(sum)); err != nil && !os.IsNotExist(err) {
			unlinkErrs = append(unlinkErrs, fmt.Errorf("archive: %w", err))
		}
	}
	a.mu.Unlock()

	a.met.gcRuns.Inc()
	a.rec.Record(0, "gc", fmt.Sprintf("removed %d blob(s), %d bytes", res.Removed, res.Bytes))
	return res, errors.Join(unlinkErrs...)
}

// planGC selects victims under a.mu.
func (a *Archive) planGC(pol GCPolicy) []BlobRef {
	refs := make([]BlobRef, 0, len(a.st.blobs))
	var newest uint64
	for _, r := range a.st.blobs {
		refs = append(refs, *r)
		if r.Time > newest {
			newest = r.Time
		}
	}
	sort.Slice(refs, func(i, j int) bool { return refOrder(&refs[i], &refs[j]) < 0 }) // oldest first
	reps := map[string]bool{}
	if pol.KeepReps {
		for _, b := range a.st.buckets {
			if b.Rep != "" {
				reps[b.Rep] = true
			}
		}
	}

	victims := map[string]bool{}
	count := len(refs)
	bytes := a.st.bytes
	evict := func(r BlobRef) {
		if victims[r.Sum] {
			return
		}
		victims[r.Sum] = true
		count--
		bytes -= r.Bytes
	}
	if pol.MaxAge > 0 {
		for _, r := range refs {
			if newest-r.Time > pol.MaxAge {
				evict(r)
			}
		}
	}
	for _, r := range refs {
		overCount := pol.MaxBlobs > 0 && count > pol.MaxBlobs
		overBytes := pol.MaxBytes > 0 && bytes > pol.MaxBytes
		if !overCount && !overBytes {
			break
		}
		if victims[r.Sum] || reps[r.Sum] {
			continue
		}
		evict(r)
	}

	out := make([]BlobRef, 0, len(victims))
	for _, r := range refs {
		if victims[r.Sum] {
			out = append(out, r)
		}
	}
	return out
}

func cloneBucket(b *Bucket) Bucket {
	c := *b
	c.Hosts = append([]string(nil), b.Hosts...)
	c.Snaps = append([]BlobRef(nil), b.Snaps...)
	c.Windows = append([]RateWindow(nil), b.Windows...)
	return c
}
