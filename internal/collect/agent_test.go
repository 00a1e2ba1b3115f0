package collect

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
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

// loopback is a real TCP listener on a kernel-assigned port — unlike
// httptest it exposes the address, so a test can kill a daemon and
// re-listen on the same port (the restart scenario).
type loopback struct {
	Listener net.Listener
}

func newLoopback() (*loopback, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &loopback{Listener: l}, nil
}

func (lb *loopback) Addr() string { return lb.Listener.Addr().String() }
func (lb *loopback) URL() string  { return "http://" + lb.Addr() }

// fastAgent builds an agent over the daemon base URLs whose retries
// cost (almost) no wall clock: instant sleep, tiny backoff, pinned
// jitter seed.
func fastAgent(t *testing.T, spool string, bases ...string) *Agent {
	t.Helper()
	a, err := NewFleetAgent(spool, bases, AgentOptions{
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
		Seed:        1,
		Sleep:       func(ctx context.Context, d time.Duration) error { return ctx.Err() },
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func mustSpool(t *testing.T, dir string, n int) string {
	t.Helper()
	p, err := Spool(dir, mkSnap("h1", n))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func spoolLen(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0
		}
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() {
			n++
		}
	}
	return n
}

func TestSpoolContentAddressed(t *testing.T) {
	dir := t.TempDir()
	p1 := mustSpool(t, dir, 1)
	p2 := mustSpool(t, dir, 1)
	if p1 != p2 {
		t.Errorf("re-spooling the same snap produced %s and %s", p1, p2)
	}
	if n := spoolLen(t, dir); n != 1 {
		t.Errorf("spool holds %d file(s), want 1", n)
	}
	fi, err := os.Stat(p1)
	if err != nil {
		t.Fatal(err)
	}
	if perm := fi.Mode().Perm(); perm != 0o644 {
		t.Errorf("spooled %s: mode %v, want 0644", filepath.Base(p1), perm)
	}
	if p3 := mustSpool(t, dir, 2); p3 == p1 {
		t.Error("distinct snaps spooled to the same path")
	}
}

func TestAgentDrainAndDedupSkip(t *testing.T) {
	_, ts, arch := newTestDaemon(t, ServerOptions{})

	spool1 := t.TempDir()
	mustSpool(t, spool1, 1)
	mustSpool(t, spool1, 2)
	a1 := fastAgent(t, spool1, ts.URL)
	if err := a1.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	if n := spoolLen(t, spool1); n != 0 {
		t.Fatalf("spool still holds %d file(s) after drain", n)
	}
	if arch.NumBlobs() != 2 || journalLen(t, arch) != 2 {
		t.Fatalf("archive: %d blob(s), %d journal record(s), want 2/2",
			arch.NumBlobs(), journalLen(t, arch))
	}
	if got := a1.met.uploads.Load(); got != 2 {
		t.Errorf("coll_agent_uploads_total = %d, want 2", got)
	}

	// A second machine crashing the same way skips the upload entirely
	// after the precheck — and the journal records nothing new.
	spool2 := t.TempDir()
	mustSpool(t, spool2, 1)
	a2 := fastAgent(t, spool2, ts.URL)
	if err := a2.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	if got := a2.met.dedupSkips.Load(); got != 1 {
		t.Errorf("coll_agent_dedup_skips_total = %d, want 1", got)
	}
	if got := a2.met.uploads.Load(); got != 0 {
		t.Errorf("second agent uploaded %d snap(s), want 0", got)
	}
	if journalLen(t, arch) != 2 {
		t.Errorf("journal grew on a dedup skip")
	}
}

// TestAgentRetriesThroughErrorStorm: the daemon answers the first
// several requests with 500s and connection-level failures; the agent
// keeps the snap spooled and lands it when the storm passes.
func TestAgentRetriesThroughErrorStorm(t *testing.T) {
	srv, _, arch := newTestDaemon(t, ServerOptions{})
	var mu sync.Mutex
	failures := 6
	storm := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		n := failures
		if failures > 0 {
			failures--
		}
		mu.Unlock()
		switch {
		case n > 3: // connection reset: no HTTP response at all
			c, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				c.Close()
			}
		case n > 0:
			http.Error(w, "injected daemon error", http.StatusInternalServerError)
		default:
			srv.Handler().ServeHTTP(w, r)
		}
	}))
	defer storm.Close()

	spool := t.TempDir()
	mustSpool(t, spool, 1)
	ag := fastAgent(t, spool, storm.URL)
	if err := ag.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	if n := spoolLen(t, spool); n != 0 {
		t.Fatalf("spool still holds %d file(s)", n)
	}
	if arch.NumBlobs() != 1 || journalLen(t, arch) != 1 {
		t.Fatalf("archive: %d blob(s), %d record(s), want exactly 1/1",
			arch.NumBlobs(), journalLen(t, arch))
	}
	if got := ag.met.retries.Load(); got == 0 {
		t.Error("storm produced no retries")
	}
}

// TestAgentHonors429RetryAfter: backpressure responses carry a
// Retry-After hint and the agent waits at least that long.
func TestAgentHonors429RetryAfter(t *testing.T) {
	srv, _, arch := newTestDaemon(t, ServerOptions{})
	var mu sync.Mutex
	rejections := 2
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		reject := r.Method == http.MethodPost && rejections > 0
		if reject {
			rejections--
		}
		mu.Unlock()
		if reject {
			w.Header().Set("Retry-After", "7")
			http.Error(w, "ingest at capacity", http.StatusTooManyRequests)
			return
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer gate.Close()

	var slept []time.Duration
	ag, err := NewFleetAgent(t.TempDir(), []string{gate.URL}, AgentOptions{
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
		Seed:        1,
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mustSpool(t, ag.spool, 1)
	if err := ag.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	if got := ag.met.backpressure.Load(); got != 2 {
		t.Errorf("coll_agent_backpressure_total = %d, want 2", got)
	}
	hinted := false
	for _, d := range slept {
		if d >= 7*time.Second {
			hinted = true
		}
	}
	if !hinted {
		t.Errorf("no sleep honored the 7s Retry-After hint; slept %v", slept)
	}
	if journalLen(t, arch) != 1 {
		t.Errorf("journal holds %d record(s), want 1", journalLen(t, arch))
	}
}

// TestAgentTruncatedResponseRetriesIdempotently: the daemon commits
// the snap but its response is cut off mid-body. The agent cannot
// prove the handoff, so it retries — and the precheck turns the retry
// into a skip. Nothing is lost, nothing is double-counted.
func TestAgentTruncatedResponseRetriesIdempotently(t *testing.T) {
	srv, _, arch := newTestDaemon(t, ServerOptions{})
	var mu sync.Mutex
	truncateNext := true
	trunc := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		doTrunc := r.Method == http.MethodPost && truncateNext
		if doTrunc {
			truncateNext = false
		}
		mu.Unlock()
		if !doTrunc {
			srv.Handler().ServeHTTP(w, r)
			return
		}
		// Let the real daemon commit the upload, then cut the reply off
		// mid-JSON — the worst-timed daemon death the agent can see.
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, r)
		c, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		fmt.Fprintf(c, "HTTP/1.1 %d OK\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n{\"v\":", rec.Code)
		c.Close()
	}))
	defer trunc.Close()

	spool := t.TempDir()
	mustSpool(t, spool, 1)
	ag := fastAgent(t, spool, trunc.URL)
	if err := ag.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	if n := spoolLen(t, spool); n != 0 {
		t.Fatalf("spool still holds %d file(s)", n)
	}
	if journalLen(t, arch) != 1 {
		t.Fatalf("journal holds %d record(s), want exactly 1", journalLen(t, arch))
	}
	if ag.met.retries.Load() == 0 {
		t.Error("truncated response did not register as a retry")
	}
	if ag.met.dedupSkips.Load() != 1 {
		t.Errorf("coll_agent_dedup_skips_total = %d, want 1 (retry resolved by precheck)", ag.met.dedupSkips.Load())
	}
}

// TestAgentSurvivesDaemonKillRestart kills the daemon mid-upload
// (hard close, no drain), reopens the store as a restarted daemon on
// the same address, and checks the agent loses nothing and the index
// comes out identical to a direct local ingest.
func TestAgentSurvivesDaemonKillRestart(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "wh")
	arch1, err := archive.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := NewServer(arch1, ServerOptions{})
	entered := make(chan struct{}, 1)
	hold := make(chan struct{})
	srv1.ingestGate = func() {
		select {
		case entered <- struct{}{}:
			<-hold
		default: // only the first upload is pinned
		}
	}
	lb, err := newLoopback()
	if err != nil {
		t.Fatal(err)
	}
	serve1 := make(chan error, 1)
	go func() { serve1 <- srv1.Serve(lb.Listener) }()

	spool := t.TempDir()
	mustSpool(t, spool, 1)
	mustSpool(t, spool, 2)
	ag := fastAgent(t, spool, lb.URL())
	drained := make(chan error, 1)
	go func() { drained <- ag.Drain(t.Context()) }()

	// First upload is in flight inside the daemon: kill it. No drain,
	// no goodbye — connections die under the handler.
	<-entered
	if err := srv1.hs.Close(); err != nil {
		t.Fatalf("hard close: %v", err)
	}
	close(hold)
	<-serve1
	// Wait for the interrupted handler to release its ingest slot
	// before the store closes under it.
	for len(srv1.sem) != 0 {
		time.Sleep(time.Millisecond)
	}
	if err := arch1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: same store directory (crash recovery path), same
	// address. The agent has been retrying the whole time.
	arch2, err := archive.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	defer arch2.Close()
	srv2 := NewServer(arch2, ServerOptions{})
	var l2 net.Listener
	for i := 0; ; i++ {
		l2, err = net.Listen("tcp", lb.Addr())
		if err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("re-listen on %s: %v", lb.Addr(), err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	serve2 := make(chan error, 1)
	go func() { serve2 <- srv2.Serve(l2) }()
	t.Cleanup(func() { srv2.Shutdown(context.Background()); <-serve2 })

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n := spoolLen(t, spool); n != 0 {
		t.Fatalf("spool still holds %d file(s)", n)
	}
	if arch2.NumBlobs() != 2 || journalLen(t, arch2) != 2 {
		t.Fatalf("restarted store: %d blob(s), %d record(s), want 2/2",
			arch2.NumBlobs(), journalLen(t, arch2))
	}

	// Byte-for-byte parity with a direct local ingest of the same two
	// snaps — the kill/restart left no trace in the index.
	direct, err := archive.Open(filepath.Join(t.TempDir(), "direct"))
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	for _, n := range []int{1, 2} {
		s := mkSnap("h1", n)
		if _, err := direct.Ingest(s, archive.SignSnap(s, nil)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := direct.IndexBytes()
	if err != nil {
		t.Fatal(err)
	}
	got, err := arch2.IndexBytes()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("index after kill/restart differs from direct ingest:\n%s\nvs\n%s", got, want)
	}
}

func TestAgentQuarantinesUnreadableSnap(t *testing.T) {
	_, ts, arch := newTestDaemon(t, ServerOptions{})
	spool := t.TempDir()
	bad := filepath.Join(spool, "deadbeef.snap.json.gz")
	if err := os.WriteFile(bad, []byte("not gzip, not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	mustSpool(t, spool, 1)

	ag := fastAgent(t, spool, ts.URL)
	if err := ag.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	if got := ag.met.quarantined.Load(); got != 1 {
		t.Errorf("coll_agent_quarantined_total = %d, want 1", got)
	}
	if _, err := os.Stat(filepath.Join(spool, quarantineDir, "deadbeef.snap.json.gz")); err != nil {
		t.Errorf("quarantined file not preserved: %v", err)
	}
	if n := spoolLen(t, spool); n != 0 {
		t.Errorf("spool still holds %d file(s)", n)
	}
	if journalLen(t, arch) != 1 {
		t.Errorf("good snap did not land: journal holds %d record(s)", journalLen(t, arch))
	}
}

// TestAgentQuarantinesDefinitiveRejection: a 4xx verdict from the
// daemon means retrying identical bytes cannot succeed; the agent
// parks the snap instead of spinning on it, and sidecars the daemon's
// verdict (status + response snippet) next to the evidence.
func TestAgentQuarantinesDefinitiveRejection(t *testing.T) {
	reject := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			http.Error(w, "signature policy: snap class forbidden", http.StatusForbidden)
			return
		}
		w.WriteHeader(http.StatusNotFound) // precheck: not stored
	}))
	defer reject.Close()

	spool := t.TempDir()
	mustSpool(t, spool, 1)
	ag := fastAgent(t, spool, reject.URL)
	if err := ag.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	if got := ag.met.quarantined.Load(); got != 1 {
		t.Errorf("coll_agent_quarantined_total = %d, want 1", got)
	}
	if n := spoolLen(t, spool); n != 0 {
		t.Errorf("spool still holds %d file(s)", n)
	}

	// Exactly one quarantined snap plus its .reason sidecar, holding
	// the HTTP status and the daemon's explanation.
	qdir := filepath.Join(spool, quarantineDir)
	entries, err := os.ReadDir(qdir)
	if err != nil {
		t.Fatal(err)
	}
	var reasonFile, snapFile string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".reason") {
			reasonFile = e.Name()
		} else {
			snapFile = e.Name()
		}
	}
	if snapFile == "" || reasonFile != snapFile+".reason" {
		t.Fatalf("quarantine holds %v, want <snap> and <snap>.reason", entries)
	}
	reason, err := os.ReadFile(filepath.Join(qdir, reasonFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"403", "signature policy: snap class forbidden"} {
		if !strings.Contains(string(reason), want) {
			t.Errorf("reason %q missing %q", reason, want)
		}
	}
}

// TestAgentBoundsUploadResponse: a reply to the upload that never
// ends — a wedged daemon, or anything else listening at the URL — is
// read only as far as an UploadResponse can reach, then counts as
// unreadable and is retried long before the client's 30 s timeout;
// the snap stays spooled.
func TestAgentBoundsUploadResponse(t *testing.T) {
	endless := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.WriteHeader(http.StatusNotFound) // precheck: not stored
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		io.WriteString(w, `{"v":1,"sum":"`)
		chunk := bytes.Repeat([]byte("a"), 32<<10)
		for r.Context().Err() == nil {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	defer endless.Close()

	spool := t.TempDir()
	path := mustSpool(t, spool, 1)
	t0 := time.Now()
	out, _, err := fastAgent(t, spool, endless.URL).processFile(t.Context(), path, make([]bool, 1))
	if d := time.Since(t0); d > 5*time.Second {
		t.Errorf("endless reply held the agent for %v", d)
	}
	if out != outRetry || err == nil || !strings.Contains(err.Error(), "unreadable upload response") {
		t.Errorf("outcome %v, error %v; want a retry for an unreadable upload response", out, err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("snap left the spool: %v", err)
	}
}

// TestAgentShipsWhatItSpooled: an entry named by its content address
// is the upload body, byte for byte, whatever gzip level framed it —
// the agent neither decodes nor re-compresses it — and the daemon
// frames the blob itself, so it stores exactly the bytes a direct
// ingest of the same snap stores.
func TestAgentShipsWhatItSpooled(t *testing.T) {
	srv, _, arch := newTestDaemon(t, ServerOptions{})
	var mu sync.Mutex
	var bodies [][]byte
	capture := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			b, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			bodies = append(bodies, b)
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(b))
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer capture.Close()

	s := mkSnap("h1", 1)
	sum, canonical, err := archive.ChecksumSnap(s)
	if err != nil {
		t.Fatal(err)
	}
	var fast bytes.Buffer
	zw, err := gzip.NewWriterLevel(&fast, gzip.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	zw.Write(canonical)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	spool := t.TempDir()
	if err := os.WriteFile(filepath.Join(spool, sum+spoolSuffix), fast.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fastAgent(t, spool, capture.URL).Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	posted := bodies
	mu.Unlock()
	if len(posted) != 1 || !bytes.Equal(posted[0], fast.Bytes()) {
		t.Fatalf("the agent POSTed %d bod(ies), want exactly the spool entry's %d bytes", len(posted), fast.Len())
	}

	direct, err := archive.Open(filepath.Join(t.TempDir(), "direct"))
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	if _, err := direct.Ingest(s, archive.SignSnap(s, nil)); err != nil {
		t.Fatal(err)
	}
	want, got := blobBytes(t, direct, sum), blobBytes(t, arch, sum)
	if bytes.Equal(want, fast.Bytes()) {
		t.Fatal("the BestSpeed spool entry frames the snap as the archive does; the test shows nothing")
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wire blob (%d bytes) differs from the direct ingest's blob (%d bytes)", len(got), len(want))
	}
}

func blobBytes(t *testing.T, a *archive.Archive, sum string) []byte {
	t.Helper()
	rc, _, err := a.OpenBlob(sum)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	b, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAgentRespoolsWhatItCannotSend: an entry the agent cannot send as
// it is — a foreign name, the <proc>-<n> name tbrun -snapdir writes, a
// content-address name over a different snap (the daemon answers 422)
// — is re-spooled under its own address and lands; nothing is
// quarantined and the snap the misleading name addresses is never
// stored.
func TestAgentRespoolsWhatItCannotSend(t *testing.T) {
	_, ts, arch := newTestDaemon(t, ServerOptions{})
	spool := t.TempDir()
	write := func(name string, s *snap.Snap) {
		t.Helper()
		if err := snap.SaveFile(filepath.Join(spool, name), s); err != nil {
			t.Fatal(err)
		}
	}
	misnamed, _, err := archive.ChecksumSnap(mkSnap("h1", 4))
	if err != nil {
		t.Fatal(err)
	}
	write("crash-2.snap.json.gz", mkSnap("h1", 2))
	write("app-3.snap.json.gz", mkSnap("h1", 3))
	write(misnamed+spoolSuffix, mkSnap("h1", 5))

	ag := fastAgent(t, spool, ts.URL)
	if err := ag.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	if got := ag.met.quarantined.Load(); got != 0 {
		t.Errorf("coll_agent_quarantined_total = %d, want 0", got)
	}
	if n := spoolLen(t, spool); n != 0 {
		t.Errorf("spool still holds %d file(s)", n)
	}
	for _, n := range []int{2, 3, 5} {
		sum, _, err := archive.ChecksumSnap(mkSnap("h1", n))
		if err != nil {
			t.Fatal(err)
		}
		if !arch.Has(sum) {
			t.Errorf("snap %d did not land", n)
		}
	}
	if arch.Has(misnamed) || journalLen(t, arch) != 3 {
		t.Errorf("archive holds the misnamed address (%v) or %d journal record(s), want 3", arch.Has(misnamed), journalLen(t, arch))
	}
}

// TestAgentQuarantinesRespoolOntoItself: an entry under its own
// content address whose bytes the daemon still refuses (here: a
// non-canonical encoding of the same snap) re-spools onto its own
// name. The agent parks it with the daemon's reason instead of
// sending the same bytes forever.
func TestAgentQuarantinesRespoolOntoItself(t *testing.T) {
	_, ts, arch := newTestDaemon(t, ServerOptions{})
	sum, canonical, err := archive.ChecksumSnap(mkSnap("h1", 1))
	if err != nil {
		t.Fatal(err)
	}
	var indented, body bytes.Buffer
	if err := json.Indent(&indented, canonical, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteGzip(&body, indented.Bytes()); err != nil {
		t.Fatal(err)
	}
	spool := t.TempDir()
	name := sum + spoolSuffix
	if err := os.WriteFile(filepath.Join(spool, name), body.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	ag := fastAgent(t, spool, ts.URL)
	if err := ag.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	if got := ag.met.quarantined.Load(); got != 1 {
		t.Errorf("coll_agent_quarantined_total = %d, want 1", got)
	}
	reason, err := os.ReadFile(filepath.Join(spool, quarantineDir, name+".reason"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(reason), "422") || !strings.Contains(string(reason), "canonical") {
		t.Errorf("quarantine reason %q does not keep the daemon's 422", reason)
	}
	if journalLen(t, arch) != 0 {
		t.Error("a refused body reached the journal")
	}
}

// TestAgentDrainCancelKeepsSpool: cancellation mid-storm leaves the
// snap spooled — a new agent (process restart) resumes it.
func TestAgentDrainCancelKeepsSpool(t *testing.T) {
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer down.Close()

	spool := t.TempDir()
	mustSpool(t, spool, 1)
	ctx, cancel := context.WithCancel(t.Context())
	ag, err := NewFleetAgent(spool, []string{down.URL}, AgentOptions{
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
		Seed:        1,
		Sleep: func(ctx context.Context, d time.Duration) error {
			cancel() // give up during the first retry wait
			return ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ag.Drain(ctx); err == nil {
		t.Fatal("cancelled drain reported success")
	}
	if n := spoolLen(t, spool); n != 1 {
		t.Fatalf("spool holds %d file(s) after cancel, want the undelivered snap", n)
	}

	// Process restart: a fresh agent against a healthy daemon resumes
	// from the spool alone.
	_, ts, arch := newTestDaemon(t, ServerOptions{})
	if err := fastAgent(t, spool, ts.URL).Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	if n := spoolLen(t, spool); n != 0 || journalLen(t, arch) != 1 {
		t.Fatalf("resume after restart: %d spooled, %d journaled", n, journalLen(t, arch))
	}
}
