// The warehouse's durability story: an append-only journal of ingest
// and GC events (the system of record, one JSON object per line,
// written with O_APPEND single-write appends) and an index file that
// is a pure, deterministic reduction of the journal. Opening an
// archive replays the journal; the index file exists for external
// inspection and as a cross-check (`tbstore`'s rebuild verification
// re-reduces the journal and compares bytes). Both decoders are
// fuzzed (FuzzArchiveIndex) and return wrapped, inspectable errors.
package archive

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
)

// Journal/index format version. A bump means the reduction rules
// changed and old indexes must be rebuilt from their journal.
const formatVersion = 1

// Journal error classes, matchable with errors.Is.
var (
	ErrJournalSyntax  = errors.New("archive: malformed journal record")
	ErrJournalVersion = errors.New("archive: unsupported journal version")
	ErrIndexSyntax    = errors.New("archive: malformed index")
)

// JournalOp enumerates journal record kinds.
type JournalOp string

const (
	OpIngest JournalOp = "ingest"
	OpGC     JournalOp = "gc"
)

// JournalRecord is one journal line. Ingest records carry the blob
// identity and the bucket-relevant snap metadata; GC records list the
// blob checksums removed so replay reproduces the removal exactly.
type JournalRecord struct {
	V   int       `json:"v"`
	Op  JournalOp `json:"op"`
	Sum string    `json:"sum,omitempty"` // blob checksum (ingest)

	// Bucket identity (ingest).
	Sig   string `json:"sig,omitempty"`
	Title string `json:"title,omitempty"`
	Weak  bool   `json:"weak,omitempty"`

	// Snap metadata (ingest).
	Host    string `json:"host,omitempty"`
	Process string `json:"proc,omitempty"`
	Reason  string `json:"reason,omitempty"`
	Time    uint64 `json:"time,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"` // stored blob size (gzip)

	// Removed blob checksums (gc).
	Removed []string `json:"removed,omitempty"`
}

func (r *JournalRecord) validate() error {
	if r.V != formatVersion {
		return fmt.Errorf("%w: v=%d (want %d)", ErrJournalVersion, r.V, formatVersion)
	}
	switch r.Op {
	case OpIngest:
		if r.Sum == "" || r.Sig == "" {
			return fmt.Errorf("%w: ingest record missing sum or sig", ErrJournalSyntax)
		}
	case OpGC:
		if len(r.Removed) == 0 {
			return fmt.Errorf("%w: gc record removes nothing", ErrJournalSyntax)
		}
	default:
		return fmt.Errorf("%w: unknown op %q", ErrJournalSyntax, r.Op)
	}
	return nil
}

// encodeJournal renders one record as a single journal line
// (newline-terminated, no internal newlines — json.Marshal escapes
// them), so an append is one write.
func encodeJournal(r *JournalRecord) ([]byte, error) {
	if err := r.validate(); err != nil {
		return nil, err
	}
	b, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeJournal parses a complete journal stream. Every line must be
// a valid record; errors identify the offending line number and wrap
// ErrJournalSyntax / ErrJournalVersion for errors.Is dispatch.
func DecodeJournal(r io.Reader) ([]JournalRecord, error) {
	recs, _, _, err := decodeJournalLines(r, false)
	return recs, err
}

// decodeJournalLines is the shared scanner. With tolerateTail set, an
// unterminated final line (the footprint of a crash mid-append under
// O_APPEND) is dropped rather than rejected; the returned bool
// reports whether that happened. goodLen is the byte length of the
// newline-terminated prefix — the offset the journal file must be
// truncated to before appending again, so the next record does not
// glue onto the torn tail.
func decodeJournalLines(r io.Reader, tolerateTail bool) (recs []JournalRecord, goodLen int64, torn bool, err error) {
	br := bufio.NewReader(r)
	line := 0
	for {
		raw, rerr := br.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return recs, goodLen, false, fmt.Errorf("archive: journal read: %w", rerr)
		}
		if len(raw) > 0 {
			line++
			complete := raw[len(raw)-1] == '\n'
			if !complete && tolerateTail {
				return recs, goodLen, true, nil
			}
			trimmed := bytes.TrimSpace(raw)
			if len(trimmed) > 0 {
				var rec JournalRecord
				if jerr := json.Unmarshal(trimmed, &rec); jerr != nil {
					return recs, goodLen, false, fmt.Errorf("%w: line %d: %v", ErrJournalSyntax, line, jerr)
				}
				if verr := rec.validate(); verr != nil {
					return recs, goodLen, false, fmt.Errorf("archive: journal line %d: %w", line, verr)
				}
				recs = append(recs, rec)
			}
			if complete {
				goodLen += int64(len(raw))
			}
		}
		if rerr == io.EOF {
			return recs, goodLen, false, nil
		}
	}
}

// BlobRef is one stored snap within a bucket.
type BlobRef struct {
	Sum     string `json:"sum"`
	Bytes   int64  `json:"bytes"`
	Host    string `json:"host"`
	Process string `json:"proc"`
	Reason  string `json:"reason"`
	Time    uint64 `json:"time"`
}

// Bucket aggregates every occurrence of one crash signature.
type Bucket struct {
	Sig   string `json:"sig"`
	Title string `json:"title"`
	Weak  bool   `json:"weak,omitempty"`
	// Count is the number of ingest events (occurrences), which can
	// exceed len(Snaps): identical snaps dedupe to one blob.
	Count     uint64   `json:"count"`
	FirstSeen uint64   `json:"firstSeen"`
	LastSeen  uint64   `json:"lastSeen"`
	Hosts     []string `json:"hosts"`
	// Windows is the bucket's crash-rate histogram: one entry per
	// WindowWidth-cycle window that saw an ingest, sorted by Start,
	// bounded to the WindowCap newest windows (see windows.go). Like
	// Count, it tallies ingest events, so duplicates count every
	// occurrence; unlike Snaps, GC never rewrites history here.
	Windows []RateWindow `json:"windows,omitempty"`
	// Rep is the representative blob: the earliest-seen snap (ties
	// broken by checksum), the one `tbstore show` reconstructs.
	Rep   string    `json:"rep,omitempty"`
	Snaps []BlobRef `json:"snaps,omitempty"`
}

// Index is the serialized reduction of the journal.
type Index struct {
	V       int      `json:"v"`
	Buckets []Bucket `json:"buckets"`
}

// DecodeIndex parses an index file.
func DecodeIndex(data []byte) (*Index, error) {
	var idx Index
	if err := json.Unmarshal(data, &idx); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrIndexSyntax, err)
	}
	if idx.V != formatVersion {
		return nil, fmt.Errorf("%w: v=%d (want %d)", ErrIndexSyntax, idx.V, formatVersion)
	}
	for i := range idx.Buckets {
		if idx.Buckets[i].Sig == "" {
			return nil, fmt.Errorf("%w: bucket %d has no signature", ErrIndexSyntax, i)
		}
	}
	return &idx, nil
}

// state is the in-memory reduction the journal replays into. Every
// bucket in it is a fold of its records (fold.go), which is what
// makes the index deterministic regardless of ingest concurrency.
type state struct {
	buckets map[string]*Bucket
	blobs   map[string]*BlobRef // sum → ref (one bucket owns each blob)
	owner   map[string]string   // sum → sig
	bytes   int64               // resident blob bytes
	applied uint64              // records folded in: the index's version (Archive.Version)
}

func newState() *state {
	return &state{
		buckets: map[string]*Bucket{},
		blobs:   map[string]*BlobRef{},
		owner:   map[string]string{},
	}
}

// apply folds one journal record into the state. newBucket reports an
// ingest that created its bucket.
func (st *state) apply(rec *JournalRecord) (newBucket bool) {
	st.applied++
	switch rec.Op {
	case OpIngest:
		b := st.buckets[rec.Sig]
		if b == nil {
			b = &Bucket{}
			st.buckets[rec.Sig] = b
			newBucket = true
		}
		// The record folds in as a bucket of one occurrence.
		host := [1]string{rec.Host}
		win := [1]RateWindow{{Start: windowStart(rec.Time), Count: 1}}
		ref := [1]BlobRef{{
			Sum: rec.Sum, Bytes: rec.Bytes,
			Host: rec.Host, Process: rec.Process,
			Reason: rec.Reason, Time: rec.Time,
		}}
		one := Bucket{
			Sig: rec.Sig, Title: rec.Title, Weak: rec.Weak, Count: 1,
			FirstSeen: rec.Time, LastSeen: rec.Time, Windows: win[:],
		}
		if rec.Host != "" {
			one.Hosts = host[:]
		}
		// One bucket owns each blob: content already resident adds an
		// occurrence, not a second ref.
		if _, resident := st.blobs[rec.Sum]; !resident {
			st.blobs[rec.Sum] = &ref[0]
			st.owner[rec.Sum] = rec.Sig
			st.bytes += rec.Bytes
			one.Snaps = ref[:]
		}
		b.fold(&one)
	case OpGC:
		for _, sum := range rec.Removed {
			ref, ok := st.blobs[sum]
			if !ok {
				continue
			}
			st.bytes -= ref.Bytes
			delete(st.blobs, sum)
			sig := st.owner[sum]
			delete(st.owner, sum)
			b := st.buckets[sig]
			if b == nil {
				continue
			}
			for i := range b.Snaps {
				if b.Snaps[i].Sum == sum {
					b.Snaps = append(b.Snaps[:i], b.Snaps[i+1:]...)
					break
				}
			}
			// The bucket's history (count, seen range, hosts) survives
			// the eviction of its blobs; only Rep tracks what remains.
			if len(b.Snaps) > 0 {
				b.Rep = b.Snaps[0].Sum
			} else {
				b.Rep = ""
			}
		}
	}
	return newBucket
}

// index serializes the state in its canonical order: buckets by
// signature, hosts sorted, snaps by (time, sum), windows by start.
// Buckets are deep-copied so the caller can encode the result after
// releasing the archive lock.
func (st *state) index() *Index {
	idx := &Index{V: formatVersion, Buckets: make([]Bucket, 0, len(st.buckets))}
	for _, b := range st.buckets {
		idx.Buckets = append(idx.Buckets, cloneBucket(b))
	}
	sort.Slice(idx.Buckets, func(i, j int) bool { return idx.Buckets[i].Sig < idx.Buckets[j].Sig })
	return idx
}

// encodeIndex renders the canonical index bytes (indented JSON with a
// trailing newline). Two states with the same content encode
// identically — the property the journal-rebuild check relies on.
func encodeIndex(idx *Index) ([]byte, error) {
	b, err := json.MarshalIndent(idx, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// IndexBytesOf reduces an arbitrary batch of journal records to
// canonical index bytes. The reduction is order-independent, so the
// concatenated journals of N shards reduce to exactly the bytes a
// single node ingesting the same events would produce — the
// byte-equivalence loopback.TestShardedCampaign holds the sharded
// warehouse to.
func IndexBytesOf(recs []JournalRecord) ([]byte, error) {
	return encodeIndex(reduceJournal(recs).index())
}

// reduceJournal replays records into a fresh state.
func reduceJournal(recs []JournalRecord) *state {
	st := newState()
	for i := range recs {
		st.apply(&recs[i])
	}
	return st
}
