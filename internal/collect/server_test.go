package collect

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"traceback/internal/archive"
	"traceback/internal/snap"
)

// mkSnap builds a distinct synthetic snap; the same (host, n) always
// yields byte-identical content, so dedup is testable end to end.
func mkSnap(host string, n int) *snap.Snap {
	return &snap.Snap{
		Host: host, Process: "app", PID: 100 + n, RuntimeID: uint64(n),
		Reason: "exception SIGSEGV", Signal: 11, Time: uint64(1000 * (n + 1)),
		Modules: []snap.ModuleInfo{{Name: "app", Checksum: fmt.Sprintf("c%02d", n), DAGCount: 1}},
		Buffers: []snap.BufferDump{{Kind: snap.BufMain, OwnerTID: 1, LastKnown: true,
			SubWords: 4, Raw: []byte{byte(n), 0, 0, 0}}},
	}
}

// newTestDaemon opens a fresh archive and fronts it with a Server
// behind httptest; Close the returned ts, the archive closes with the
// test's cleanup.
func newTestDaemon(t *testing.T, opts ServerOptions) (*Server, *httptest.Server, *archive.Archive) {
	t.Helper()
	arch, err := archive.Open(filepath.Join(t.TempDir(), "wh"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { arch.Close() })
	srv := NewServer(arch, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, arch
}

// upload POSTs a snap the way the agent does (gzip body + claimed
// sum) and returns the status and decoded response.
func upload(t *testing.T, base string, s *snap.Snap) (int, UploadResponse) {
	t.Helper()
	sum, _, err := archive.ChecksumSnap(s)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := s.SaveCompressed(&body); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+PathSnap, &body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderSum, sum)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ur UploadResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
			t.Fatalf("decoding upload response: %v", err)
		}
	}
	return resp.StatusCode, ur
}

func journalLen(t *testing.T, arch *archive.Archive) int {
	t.Helper()
	f, err := os.Open(filepath.Join(arch.Root(), "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := archive.DecodeJournal(f)
	if err != nil {
		t.Fatal(err)
	}
	return len(recs)
}

func metricValue(t *testing.T, base, name string) int {
	t.Helper()
	resp, err := http.Get(base + PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v int
			if _, err := fmt.Sscanf(line, name+" %d", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not exposed on /metrics:\n%s", name, b)
	return 0
}

func TestUploadPrecheckLifecycle(t *testing.T) {
	_, ts, arch := newTestDaemon(t, ServerOptions{})
	s := mkSnap("h1", 1)
	sum, _, err := archive.ChecksumSnap(s)
	if err != nil {
		t.Fatal(err)
	}

	// Precheck before upload: not stored.
	resp, err := http.Head(ts.URL + PathBlobPrefix + sum)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("precheck before upload: %s, want 404", resp.Status)
	}

	// First upload stores and echoes the hash.
	status, ur := upload(t, ts.URL, s)
	if status != http.StatusCreated {
		t.Fatalf("first upload: status %d, want 201", status)
	}
	if ur.Sum != sum || ur.Dup || !ur.NewBucket || ur.Sig == "" {
		t.Fatalf("first upload response: %+v", ur)
	}

	// Precheck after upload: stored.
	resp, err = http.Head(ts.URL + PathBlobPrefix + sum)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("precheck after upload: %s, want 200", resp.Status)
	}

	// Replay is an idempotent no-op: 200, Dup, no second journal entry.
	status, ur = upload(t, ts.URL, s)
	if status != http.StatusOK || !ur.Dup || ur.Sum != sum {
		t.Fatalf("replay: status %d, response %+v", status, ur)
	}
	if n := journalLen(t, arch); n != 1 {
		t.Errorf("journal holds %d record(s) after replay, want 1", n)
	}

	// Triage queries see the bucket.
	var top TopResponse
	r2, err := http.Get(ts.URL + PathTop + "?n=5")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r2.Body).Decode(&top); err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if len(top.Buckets) != 1 || top.Buckets[0].Count != 1 {
		t.Errorf("top = %+v, want one bucket with count 1", top.Buckets)
	}

	// coll_* telemetry is live on /metrics.
	if v := metricValue(t, ts.URL, "coll_uploads_total"); v != 1 {
		t.Errorf("coll_uploads_total = %d, want 1", v)
	}
	if v := metricValue(t, ts.URL, "coll_upload_dups_total"); v != 1 {
		t.Errorf("coll_upload_dups_total = %d, want 1", v)
	}
	if v := metricValue(t, ts.URL, "coll_precheck_misses_total"); v != 1 {
		t.Errorf("coll_precheck_misses_total = %d, want 1", v)
	}
	if v := metricValue(t, ts.URL, "coll_precheck_hits_total"); v != 1 {
		t.Errorf("coll_precheck_hits_total = %d, want 1", v)
	}

	// healthz answers while serving.
	hr, err := http.Get(ts.URL + PathHealth)
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("healthz: %s", hr.Status)
	}
}

func TestUploadHashMismatchRejected(t *testing.T) {
	_, ts, arch := newTestDaemon(t, ServerOptions{})
	s := mkSnap("h1", 1)
	var body bytes.Buffer
	if err := s.SaveCompressed(&body); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+PathSnap, &body)
	req.Header.Set(HeaderSum, strings.Repeat("ab", 32))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
	if arch.NumBlobs() != 0 || journalLen(t, arch) != 0 {
		t.Error("mismatched upload reached the archive")
	}
	if v := metricValue(t, ts.URL, "coll_upload_errors_total"); v != 1 {
		t.Errorf("coll_upload_errors_total = %d, want 1", v)
	}
}

// TestUploadNonCanonicalRejected: the daemon stores only a body that
// is the canonical encoding of the snap it decodes to, because those
// bytes are what it hashes and archives. A body that decodes to a
// valid snap some other way — even under the right claimed address —
// is refused 422, one that breaks the single-member gzip rule 400;
// neither journals anything, and each counts as an upload error.
func TestUploadNonCanonicalRejected(t *testing.T) {
	_, ts, arch := newTestDaemon(t, ServerOptions{})
	sum, canonical, err := archive.ChecksumSnap(mkSnap("h1", 1))
	if err != nil {
		t.Fatal(err)
	}
	gz := func(b []byte) []byte {
		var buf bytes.Buffer
		if err := snap.WriteGzip(&buf, b); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, canonical, "", "  "); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		body []byte
		want int
	}{
		{"case-folded key", gz(append([]byte(`{"pArtners":[],`), canonical[1:]...)), http.StatusUnprocessableEntity},
		{"re-indented", gz(indented.Bytes()), http.StatusUnprocessableEntity},
		{"plain JSON with bytes after the value", append(bytes.Clone(canonical), `{}`...), http.StatusUnprocessableEntity},
		{"second gzip member", append(gz(canonical), gz(canonical)...), http.StatusBadRequest},
	} {
		t.Run(c.name, func(t *testing.T) {
			journal := journalLen(t, arch)
			errs := metricValue(t, ts.URL, "coll_upload_errors_total")
			req, err := http.NewRequest(http.MethodPost, ts.URL+PathSnap, bytes.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set(HeaderSum, sum)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Errorf("status %d, want %d", resp.StatusCode, c.want)
			}
			if n := journalLen(t, arch); n != journal || arch.NumBlobs() != 0 {
				t.Errorf("refused upload reached the archive: journal %d → %d, %d blob(s)", journal, n, arch.NumBlobs())
			}
			if v := metricValue(t, ts.URL, "coll_upload_errors_total"); v != errs+1 {
				t.Errorf("coll_upload_errors_total %d → %d, want +1", errs, v)
			}
		})
	}
}

func TestUploadGarbageRejected(t *testing.T) {
	_, ts, arch := newTestDaemon(t, ServerOptions{})
	resp, err := http.Post(ts.URL+PathSnap, "application/gzip", strings.NewReader("not a snap"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if arch.NumBlobs() != 0 {
		t.Error("garbage reached the archive")
	}
}

func TestPrecheckBadSumRejected(t *testing.T) {
	_, ts, _ := newTestDaemon(t, ServerOptions{})
	for _, sum := range []string{"zz", strings.Repeat("g", 64), strings.Repeat("AB", 32)} {
		resp, err := http.Head(ts.URL + PathBlobPrefix + sum)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("precheck %q: status %d, want 400", sum, resp.StatusCode)
		}
	}
}

// TestBackpressure429: with one ingest slot held, a concurrent upload
// is rejected 429 with a Retry-After hint instead of queueing.
func TestBackpressure429(t *testing.T) {
	srv, ts, _ := newTestDaemon(t, ServerOptions{MaxInflight: 1})
	hold := make(chan struct{})
	entered := make(chan struct{}, 8)
	srv.ingestGate = func() {
		entered <- struct{}{}
		<-hold
	}

	done := make(chan int, 1)
	go func() {
		status, _ := upload(t, ts.URL, mkSnap("h1", 1))
		done <- status
	}()
	<-entered // the slot is now held mid-ingest

	srv.ingestGate = nil // the rejected path never reaches the gate; keep later calls unguarded
	status, _ := upload(t, ts.URL, mkSnap("h2", 2))
	if status != http.StatusTooManyRequests {
		t.Fatalf("concurrent upload: status %d, want 429", status)
	}
	close(hold)
	if s := <-done; s != http.StatusCreated {
		t.Fatalf("held upload: status %d, want 201", s)
	}
	if v := metricValue(t, ts.URL, "coll_backpressure_total"); v != 1 {
		t.Errorf("coll_backpressure_total = %d, want 1", v)
	}

	// The rejected snap goes through fine once capacity frees up.
	if status, _ := upload(t, ts.URL, mkSnap("h2", 2)); status != http.StatusCreated {
		t.Fatalf("retry after backpressure: status %d, want 201", status)
	}
}

// TestGracefulDrain: Shutdown lets the in-flight ingest finish (its
// journal entry lands) and only then stops the listener.
func TestGracefulDrain(t *testing.T) {
	arch, err := archive.Open(filepath.Join(t.TempDir(), "wh"))
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	srv := NewServer(arch, ServerOptions{})
	hold := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv.ingestGate = func() {
		entered <- struct{}{}
		<-hold
	}

	l, err := newLoopback()
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l.Listener) }()

	var wg sync.WaitGroup
	wg.Add(1)
	var status int
	go func() {
		defer wg.Done()
		status, _ = upload(t, l.URL(), mkSnap("h1", 1))
	}()
	<-entered

	shutDone := make(chan error, 1)
	go func() { shutDone <- srv.Shutdown(t.Context()) }()
	close(hold)
	if err := <-shutDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != http.ErrServerClosed {
		t.Fatalf("serve returned %v", err)
	}
	wg.Wait()
	if status != http.StatusCreated {
		t.Fatalf("in-flight upload during drain: status %d, want 201", status)
	}
	if n := journalLen(t, arch); n != 1 {
		t.Errorf("journal holds %d record(s), want the drained ingest", n)
	}
	// The listener is gone: new uploads cannot connect.
	if _, err := http.Get(l.URL() + PathHealth); err == nil {
		t.Error("daemon still accepting connections after drain")
	}
}

// TestHealthzDraining: /healthz reports a distinct draining state —
// BeginDrain flips it to 503 {"state":"draining"} while the listener
// still accepts and in-flight ingests finish, so a load balancer
// polling health stops routing before the listener disappears.
func TestHealthzDraining(t *testing.T) {
	srv, ts, _ := newTestDaemon(t, ServerOptions{})
	getHealth := func() (int, HealthResponse) {
		resp, err := http.Get(ts.URL + PathHealth)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatalf("healthz body: %v", err)
		}
		return resp.StatusCode, h
	}

	if code, h := getHealth(); code != http.StatusOK || h.State != HealthOK {
		t.Fatalf("healthz before drain: %d %+v, want 200 %q", code, h, HealthOK)
	}

	// Pin an ingest in flight, then begin the drain: health must show
	// the draining state and the in-flight count while the upload is
	// still being served.
	hold := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv.ingestGate = func() {
		entered <- struct{}{}
		<-hold
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var status int
	go func() {
		defer wg.Done()
		status, _ = upload(t, ts.URL, mkSnap("hd", 1))
	}()
	<-entered

	srv.BeginDrain()
	if !srv.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
	code, h := getHealth()
	if code != http.StatusServiceUnavailable || h.State != HealthDraining {
		t.Errorf("healthz mid-drain: %d %+v, want 503 %q", code, h, HealthDraining)
	}
	if h.Inflight != 1 {
		t.Errorf("healthz mid-drain inflight = %d, want 1", h.Inflight)
	}

	close(hold)
	wg.Wait()
	if status != http.StatusCreated {
		t.Errorf("upload during drain: status %d, want 201", status)
	}
	if _, h := getHealth(); h.Inflight != 0 {
		t.Errorf("healthz after drain settled: inflight %d, want 0", h.Inflight)
	}
}

// TestMetricsJSONFormat: ?format=json serves the JSON exposition with
// the flight recorder included.
func TestMetricsJSONFormat(t *testing.T) {
	_, ts, _ := newTestDaemon(t, ServerOptions{})
	if status, _ := upload(t, ts.URL, mkSnap("h1", 1)); status != http.StatusCreated {
		t.Fatalf("upload status %d", status)
	}
	resp, err := http.Get(ts.URL + PathMetrics + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Counters map[string]uint64 `json:"counters"`
		Events   *struct {
			Events []struct {
				Kind string `json:"kind"`
			} `json:"events"`
		} `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Counters["coll_uploads_total"] != 1 {
		t.Errorf("coll_uploads_total = %d, want 1", doc.Counters["coll_uploads_total"])
	}
	found := false
	if doc.Events != nil {
		for _, e := range doc.Events.Events {
			if e.Kind == "coll-upload" {
				found = true
			}
		}
	}
	if !found {
		t.Error("no coll-upload flight event in the JSON exposition")
	}
}

// TestUploadInflateBombRejected: the body cap bounds compressed bytes
// only, and snaps compress ~400:1 — a member that inflates past
// snap.MaxInflatedBytes must be refused 413 (the agent's 4xx →
// quarantine path) and leave the archive untouched.
func TestUploadInflateBombRejected(t *testing.T) {
	_, ts, arch := newTestDaemon(t, ServerOptions{})
	var bomb bytes.Buffer
	zw, err := gzip.NewWriterLevel(&bomb, gzip.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	zw.Write([]byte("{}"))
	pad := bytes.Repeat([]byte(" "), 1<<20)
	for n := 0; n < snap.MaxInflatedBytes; n += len(pad) {
		zw.Write(pad)
	}
	zw.Close()

	resp, err := http.Post(ts.URL+PathSnap, "application/gzip", &bomb)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	if arch.NumBlobs() != 0 {
		t.Error("bomb reached the archive")
	}
}

// TestShutdownBeforeServe: a Shutdown that wins the race with the
// serving goroutine must still stop it — Serve returns ErrServerClosed
// instead of accepting forever on a listener nobody will close.
func TestShutdownBeforeServe(t *testing.T) {
	srv, _, _ := newTestDaemon(t, ServerOptions{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve after Shutdown: %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve after Shutdown never returned")
	}
}
