package collect

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"traceback/internal/archive"
	"traceback/internal/recon"
	"traceback/internal/snap"
	"traceback/internal/telemetry"
	"traceback/internal/triage"
)

// ServerOptions configures a collection daemon.
type ServerOptions struct {
	// Maps resolves mapfiles for strong crash signatures; nil archives
	// every upload under weak metadata signatures.
	Maps recon.MapResolver
	// MaxInflight bounds concurrent ingests; uploads beyond it are
	// rejected 429 with Retry-After (default 4).
	MaxInflight int
	// MaxBodyBytes bounds one upload body (default 64 MiB).
	MaxBodyBytes int64
	// Telemetry is the registry coll_ metrics land in (nil: private).
	Telemetry *telemetry.Registry
}

// retryAfterSecs is the Retry-After an upload refused with 429 (at
// capacity) or 503 (draining) carries.
const retryAfterSecs = "1"

// Server fronts an archive.Archive with the collection protocol. It
// is safe for concurrent use; ingest concurrency is bounded by a
// semaphore and overload turns into explicit 429 backpressure rather
// than queueing without bound.
type Server struct {
	arch *archive.Archive
	maps recon.MapResolver

	sem     chan struct{}
	maxBody int64

	hs       *http.Server
	draining atomic.Bool
	started  time.Time

	reg *telemetry.Registry
	rec *telemetry.Recorder
	met serverMetrics

	// ingestGate, when set (tests only), runs while an upload holds
	// its semaphore slot — the hook backpressure and drain tests use
	// to pin an ingest in flight.
	ingestGate func()
}

type serverMetrics struct {
	uploads      *telemetry.Counter
	uploadDups   *telemetry.Counter
	precheckHit  *telemetry.Counter
	precheckMiss *telemetry.Counter
	backpressure *telemetry.Counter
	uploadErrors *telemetry.Counter
	bytesIn      *telemetry.Counter
	uploadNanos  *telemetry.Histogram
}

// NewServer builds a daemon over an open archive.
func NewServer(arch *archive.Archive, opts ServerOptions) *Server {
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = 4
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 64 << 20
	}
	reg := opts.Telemetry
	if reg == nil {
		reg = telemetry.New()
	}
	s := &Server{
		arch:    arch,
		maps:    opts.Maps,
		sem:     make(chan struct{}, opts.MaxInflight),
		maxBody: opts.MaxBodyBytes,
		reg:     reg,
		rec:     reg.Recorder(256),
		started: time.Now(),
	}
	s.met = serverMetrics{
		uploads:      reg.Counter("coll_uploads_total", "snaps ingested over the wire"),
		uploadDups:   reg.Counter("coll_upload_dups_total", "uploads replaying content already resident (idempotent no-ops)"),
		precheckHit:  reg.Counter("coll_precheck_hits_total", "dedup prechecks answered 'already stored' (upload skipped)"),
		precheckMiss: reg.Counter("coll_precheck_misses_total", "dedup prechecks answered 'not stored'"),
		backpressure: reg.Counter("coll_backpressure_total", "uploads rejected 429 at ingest capacity"),
		uploadErrors: reg.Counter("coll_upload_errors_total", "uploads rejected (malformed, hash mismatch, or ingest failure)"),
		bytesIn:      reg.Counter("coll_bytes_received_total", "upload body bytes received"),
		uploadNanos:  reg.Histogram("coll_upload_nanos", "per-upload handling latency (ns)", telemetry.DurationBuckets()),
	}
	reg.GaugeFunc("coll_inflight", "ingests currently holding a semaphore slot", func() int64 {
		return int64(len(s.sem))
	})

	mux := http.NewServeMux()
	mux.HandleFunc("HEAD "+PathBlobPrefix+"{sum}", s.handlePrecheck)
	mux.HandleFunc("GET "+PathBlobPrefix+"{sum}", s.handleBlob)
	mux.HandleFunc("POST "+PathSnap, s.handleUpload)
	mux.HandleFunc("GET "+PathHealth, s.handleHealth)
	MountTriage(mux, arch, triage.New(arch, opts.Maps, triage.Config{}, reg), reg, nil)
	// Built here, not in Serve, so a Shutdown that wins the race with
	// the serving goroutine still makes Serve return ErrServerClosed.
	s.hs = &http.Server{Handler: mux}
	return s
}

// Handler exposes the daemon's routes (httptest-friendly).
func (s *Server) Handler() http.Handler { return s.hs.Handler }

// Metrics returns the daemon's registry.
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// Serve accepts connections on l until Shutdown. The error mirrors
// http.Server.Serve: http.ErrServerClosed after a clean shutdown.
func (s *Server) Serve(l net.Listener) error { return s.hs.Serve(l) }

// BeginDrain flips the daemon into the draining state without
// closing the listener: /healthz answers 503 {"state":"draining"} and
// so does every upload that arrives from now on, with Retry-After, so
// agents take new work to the next shard (or back to the spool) before
// the listener disappears. Uploads already admitted complete. Shutdown
// implies it; calling BeginDrain first makes the drain observable.
func (s *Server) BeginDrain() {
	if !s.draining.Swap(true) {
		s.rec.Record(0, "coll-drain-begin", "")
	}
}

// Draining reports whether the daemon has entered its drain.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown drains gracefully: the listener stops accepting, /healthz
// flips to 503, and every in-flight ingest runs to completion (and
// its journal append lands) before Serve returns. The archive itself
// is the caller's to close — the daemon never owns it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	return s.hs.Shutdown(ctx)
}

// handlePrecheck answers the dedup precheck: 200 when the blob is
// resident, 404 when the fleet should upload.
func (s *Server) handlePrecheck(w http.ResponseWriter, r *http.Request) {
	sum := r.PathValue("sum")
	if !validSum(sum) {
		http.Error(w, "bad content address", http.StatusBadRequest)
		return
	}
	if s.arch.Has(sum) {
		s.met.precheckHit.Inc()
		w.WriteHeader(http.StatusOK)
		return
	}
	s.met.precheckMiss.Inc()
	w.WriteHeader(http.StatusNotFound)
}

// handleBlob streams a resident blob back as stored (gzip of the
// canonical snap JSON). The read complement of the upload path; the
// fan-out gate uses it to pull cluster exemplars off their shard.
func (s *Server) handleBlob(w http.ResponseWriter, r *http.Request) {
	sum := r.PathValue("sum")
	if !validSum(sum) {
		http.Error(w, "bad content address", http.StatusBadRequest)
		return
	}
	rc, size, err := s.arch.OpenBlob(sum)
	if err != nil {
		http.Error(w, "blob not resident", http.StatusNotFound)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/gzip")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	w.Header().Set(HeaderSum, sum)
	io.Copy(w, rc)
}

// handleUpload is the ingest path: refused while draining, bounded by
// the semaphore, verified against the claimed content address,
// committed idempotently.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	defer func() { s.met.uploadNanos.Observe(uint64(time.Since(t0))) }()

	if s.draining.Load() {
		w.Header().Set("Retry-After", retryAfterSecs)
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	select {
	case s.sem <- struct{}{}:
	default:
		s.met.backpressure.Inc()
		s.rec.Record(0, "coll-backpressure", r.RemoteAddr)
		w.Header().Set("Retry-After", retryAfterSecs)
		http.Error(w, "ingest at capacity", http.StatusTooManyRequests)
		return
	}
	defer func() { <-s.sem }()
	if s.ingestGate != nil {
		s.ingestGate()
	}

	// One pass over the body: inflate and decode once, keeping the
	// inflated bytes. When they are the canonical encoding of the snap
	// they decode to, they are exactly what the content address is
	// computed over and what the blob holds, so they are hashed once and
	// handed to the archive as they are. Any other encoding of a snap
	// is refused: what the agent spools is always canonical, and
	// storing anything else would take a second encode and hash.
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	sn, raw, err := snap.LoadCanonical(&countingReader{r: body, n: s.met.bytesIn})
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, snap.ErrTooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		s.uploadError(w, fmt.Sprintf("unreadable snap: %v", err), status)
		return
	}
	canonical := bytes.NewBuffer(make([]byte, 0, len(raw)))
	if err := sn.Save(canonical); err != nil {
		s.uploadError(w, fmt.Sprintf("encoding snap: %v", err), http.StatusBadRequest)
		return
	}
	if !bytes.Equal(canonical.Bytes(), raw) {
		s.uploadError(w, "body is not the canonical encoding of its snap", http.StatusUnprocessableEntity)
		return
	}
	sum := archive.SumCanonical(raw)
	if claimed := r.Header.Get(HeaderSum); claimed != "" && claimed != sum {
		s.uploadError(w, fmt.Sprintf("content hash mismatch: body is %s, claimed %s", sum, claimed),
			http.StatusUnprocessableEntity)
		return
	}

	sig := archive.SignSnap(sn, s.maps)
	res, err := s.arch.IngestCanonical(sum, raw, sn, sig)
	if err != nil {
		s.uploadError(w, err.Error(), http.StatusInternalServerError)
		return
	}
	status := http.StatusCreated
	if res.Dup {
		status = http.StatusOK
		s.met.uploadDups.Inc()
	} else {
		s.met.uploads.Inc()
		s.rec.Record(sn.Time, "coll-upload", res.Sum[:12]+" -> "+res.Sig.ID)
		if res.NewBucket {
			s.rec.Record(sn.Time, "coll-bucket-new", res.Sig.ID+" "+res.Sig.Title)
		}
	}
	WriteJSON(w, status, UploadResponse{
		V: 1, Sum: res.Sum, Sig: res.Sig.ID, Title: res.Sig.Title,
		Weak: res.Sig.Weak, Dup: res.Dup, NewBucket: res.NewBucket,
	})
}

func (s *Server) uploadError(w http.ResponseWriter, msg string, status int) {
	s.met.uploadErrors.Inc()
	s.rec.Record(0, "coll-upload-error", msg)
	http.Error(w, msg, status)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	state, code := HealthOK, http.StatusOK
	if s.draining.Load() {
		state, code = HealthDraining, http.StatusServiceUnavailable
	}
	WriteJSON(w, code, HealthResponse{
		V: 1, State: state, Inflight: len(s.sem),
		UptimeSec:   int64(time.Since(s.started) / time.Second),
		Buckets:     s.arch.NumBuckets(),
		Blobs:       s.arch.NumBlobs(),
		StoredBytes: s.arch.StoredBytes(),
	})
}

// validSum accepts exactly a lowercase SHA-256 hex string — anything
// else cannot be a content address this archive produced.
func validSum(sum string) bool {
	if len(sum) != 64 {
		return false
	}
	for i := 0; i < len(sum); i++ {
		c := sum[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// countingReader feeds received body bytes into a counter as they
// stream through the snap decoder.
type countingReader struct {
	r io.Reader
	n *telemetry.Counter
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.n.Add(uint64(n))
	}
	return n, err
}
