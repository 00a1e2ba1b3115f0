package collect

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"traceback/internal/archive"
	"traceback/internal/shard"
	"traceback/internal/snap"
	"traceback/internal/telemetry"
)

func flightKinds(reg *telemetry.Registry) []string {
	var kinds []string
	for _, e := range reg.FlightRecorder().Events() {
		kinds = append(kinds, e.Kind)
	}
	return kinds
}

func hasKind(kinds []string, want string) bool {
	for _, k := range kinds {
		if k == want {
			return true
		}
	}
	return false
}

// TestFleetAgentRespectsPlacement: with every shard healthy, each
// snap lands on exactly the shard its content hash places it on, and
// nothing counts as a failover.
func TestFleetAgentRespectsPlacement(t *testing.T) {
	const n = 3
	bases := make([]string, n)
	archs := make([]*archive.Archive, n)
	for i := 0; i < n; i++ {
		_, ts, arch := newTestDaemon(t, ServerOptions{})
		bases[i], archs[i] = ts.URL, arch
	}
	ring, err := shard.NewRing(n)
	if err != nil {
		t.Fatal(err)
	}

	spool := t.TempDir()
	const snaps = 12
	for i := 0; i < snaps; i++ {
		mustSpool(t, spool, i)
	}
	ag := fastAgent(t, spool, bases...)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ag.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := spoolLen(t, spool); got != 0 {
		t.Fatalf("%d snap(s) left spooled", got)
	}

	total := 0
	for s, arch := range archs {
		for _, b := range arch.Buckets() {
			for _, ref := range b.Snaps {
				home, err := ring.Place(ref.Sum)
				if err != nil {
					t.Fatal(err)
				}
				if home != s {
					t.Errorf("blob %s resident on shard %d, ring homes it on %d", ref.Sum[:8], s, home)
				}
				total++
			}
		}
	}
	if total != snaps {
		t.Errorf("fleet holds %d blobs, want %d", total, snaps)
	}
	if got := ag.met.failovers.Load(); got != 0 {
		t.Errorf("healthy fleet recorded %d failover(s)", got)
	}
}

// TestFleetAgentFailoverOnDeadShard: killing one shard redirects its
// snaps to the next live shard — counted in coll_agent_failover_total,
// flight-recorded, and nothing is lost.
func TestFleetAgentFailoverOnDeadShard(t *testing.T) {
	_, ts0, arch0 := newTestDaemon(t, ServerOptions{})
	_, ts1, arch1 := newTestDaemon(t, ServerOptions{})
	ring, err := shard.NewRing(2)
	if err != nil {
		t.Fatal(err)
	}

	spool := t.TempDir()
	var sums []string
	homes := make(map[int]int) // shard -> count
	for i := 0; i < 8; i++ {
		s := mkSnap("h1", i)
		sum, _, err := archive.ChecksumSnap(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Spool(spool, s); err != nil {
			t.Fatal(err)
		}
		home, err := ring.Place(sum)
		if err != nil {
			t.Fatal(err)
		}
		homes[home]++
		sums = append(sums, sum)
	}
	if homes[1] == 0 {
		t.Fatal("test fleet homes nothing on shard 1; need a bigger sample")
	}

	ts1.Close() // shard 1 dies before the agent ever runs

	ag := fastAgent(t, spool, ts0.URL, ts1.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ag.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	if got, want := ag.met.failovers.Load(), uint64(homes[1]); got != want {
		t.Errorf("coll_agent_failover_total = %d, want %d (snaps homed on the dead shard)", got, want)
	}
	if !hasKind(flightKinds(ag.Metrics()), "coll-agent-failover") {
		t.Error("no coll-agent-failover flight event recorded")
	}
	for _, sum := range sums {
		if !arch0.Has(sum) {
			t.Errorf("blob %s lost: not on the surviving shard", sum[:8])
		}
	}
	if arch1.NumBlobs() != 0 {
		t.Errorf("dead shard received %d blob(s)", arch1.NumBlobs())
	}
}

// TestFleetAgentDrainingShardRedirects: a draining shard answers 503
// on /healthz while still serving, and the agent routes around it
// exactly as if it were down.
func TestFleetAgentDrainingShardRedirects(t *testing.T) {
	_, ts0, arch0 := newTestDaemon(t, ServerOptions{})
	srv1, ts1, arch1 := newTestDaemon(t, ServerOptions{})
	srv1.BeginDrain()

	spool := t.TempDir()
	for i := 0; i < 8; i++ {
		mustSpool(t, spool, i)
	}
	ag := fastAgent(t, spool, ts0.URL, ts1.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ag.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if arch1.NumBlobs() != 0 {
		t.Errorf("draining shard received %d blob(s)", arch1.NumBlobs())
	}
	if got := arch0.NumBlobs(); got != 8 {
		t.Errorf("live shard holds %d blob(s), want all 8", got)
	}
	if ag.met.failovers.Load() == 0 {
		t.Error("redirects off a draining shard were not counted as failovers")
	}
}

// TestFleetAgentAllShardsDownSpools: with no live shard anywhere the
// agent keeps everything spooled and retries — the single-daemon
// unreachable behavior, fleet-wide.
func TestFleetAgentAllShardsDownSpools(t *testing.T) {
	_, ts0, _ := newTestDaemon(t, ServerOptions{})
	_, ts1, _ := newTestDaemon(t, ServerOptions{})
	ts0.Close()
	ts1.Close()

	spool := t.TempDir()
	for i := 0; i < 3; i++ {
		mustSpool(t, spool, i)
	}
	ag := fastAgent(t, spool, ts0.URL, ts1.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := ag.Drain(ctx); err == nil {
		t.Fatal("Drain succeeded with every shard down")
	}
	if got := spoolLen(t, spool); got != 3 {
		t.Errorf("%d snap(s) spooled, want all 3 kept", got)
	}
}

// requestLog fronts a daemon and counts the requests it serves by
// method and route (every /v1/blob/{sum} is one route).
type requestLog struct {
	mu sync.Mutex
	n  map[string]int
}

func countRequests(t *testing.T, h http.Handler) (*httptest.Server, *requestLog) {
	log := &requestLog{n: map[string]int{}}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := r.URL.Path
		if strings.HasPrefix(route, PathBlobPrefix) {
			route = PathBlobPrefix
		}
		log.mu.Lock()
		log.n[r.Method+" "+route]++
		log.mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, log
}

func (l *requestLog) count(key string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n[key]
}

// spoolHomed spools n distinct snaps and returns their content
// addresses grouped by ring home.
func spoolHomed(t *testing.T, spool string, ring *shard.Ring, n int) map[int][]string {
	t.Helper()
	homes := map[int][]string{}
	for i := 0; i < n; i++ {
		s := mkSnap("h1", i)
		sum, _, err := archive.ChecksumSnap(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Spool(spool, s); err != nil {
			t.Fatal(err)
		}
		home, err := ring.Place(sum)
		if err != nil {
			t.Fatal(err)
		}
		homes[home] = append(homes[home], sum)
	}
	return homes
}

// TestFleetAgentSendsNoHealthProbes: the upload attempt is the only
// liveness check. A healthy three-shard drain asks no shard for
// /healthz, and every blob still lands on its ring home.
func TestFleetAgentSendsNoHealthProbes(t *testing.T) {
	const n = 3
	ring, err := shard.NewRing(n)
	if err != nil {
		t.Fatal(err)
	}
	bases := make([]string, n)
	archs := make([]*archive.Archive, n)
	logs := make([]*requestLog, n)
	for i := range bases {
		srv, _, arch := newTestDaemon(t, ServerOptions{})
		ts, log := countRequests(t, srv.Handler())
		bases[i], archs[i], logs[i] = ts.URL, arch, log
	}
	spool := t.TempDir()
	homes := spoolHomed(t, spool, ring, 12)
	if err := fastAgent(t, spool, bases...).Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	for s := range bases {
		if got := logs[s].count("GET " + PathHealth); got != 0 {
			t.Errorf("shard %d was asked for %s %d time(s)", s, PathHealth, got)
		}
		for _, sum := range homes[s] {
			if !archs[s].Has(sum) {
				t.Errorf("blob %s is not on its ring home, shard %d", sum[:8], s)
			}
		}
		if got := archs[s].NumBlobs(); got != len(homes[s]) {
			t.Errorf("shard %d holds %d blob(s), its ring homes %d", s, got, len(homes[s]))
		}
	}
}

// TestFleetAgentDrainingShardCostsOnePost: a draining shard refuses the
// first upload of a pass with 503 and is skipped for the rest of it —
// one POST however many snaps it homes. Every one of them lands on the
// next shard in ring order as a counted failover.
func TestFleetAgentDrainingShardCostsOnePost(t *testing.T) {
	const n, draining = 3, 1
	ring, err := shard.NewRing(n)
	if err != nil {
		t.Fatal(err)
	}
	bases := make([]string, n)
	archs := make([]*archive.Archive, n)
	logs := make([]*requestLog, n)
	for i := range bases {
		srv, _, arch := newTestDaemon(t, ServerOptions{})
		if i == draining {
			srv.BeginDrain()
		}
		ts, log := countRequests(t, srv.Handler())
		bases[i], archs[i], logs[i] = ts.URL, arch, log
	}
	spool := t.TempDir()
	homes := spoolHomed(t, spool, ring, 12)
	if len(homes[draining]) < 2 {
		t.Fatalf("the draining shard homes %d snap(s); the test needs at least 2", len(homes[draining]))
	}
	ag := fastAgent(t, spool, bases...)
	if done, remaining, _, err := ag.pass(t.Context()); remaining != 0 || done != 12 {
		t.Fatalf("one pass: %d done, %d spooled (last error %v), want 12/0", done, remaining, err)
	}
	if got := logs[draining].count("POST " + PathSnap); got != 1 {
		t.Errorf("the draining shard was sent %d POST(s) in one pass, want 1", got)
	}
	for _, sum := range homes[draining] {
		if !archs[draining+1].Has(sum) {
			t.Errorf("blob %s homed on the draining shard is not on the next one", sum[:8])
		}
	}
	if got := archs[draining].NumBlobs(); got != 0 {
		t.Errorf("the draining shard took %d blob(s)", got)
	}
	if got, want := ag.met.failovers.Load(), uint64(len(homes[draining])); got != want {
		t.Errorf("coll_agent_failover_total = %d, want %d (snaps homed on the draining shard)", got, want)
	}
}

// TestBlobGetRoundTrip: GET /v1/blob streams the stored gzip blob
// with its content address echoed, 404s non-resident sums, and 400s
// malformed ones.
func TestBlobGetRoundTrip(t *testing.T) {
	_, ts, _ := newTestDaemon(t, ServerOptions{})
	s := mkSnap("h1", 1)
	status, ur := upload(t, ts.URL, s)
	if status != http.StatusCreated {
		t.Fatalf("upload: %d", status)
	}

	resp, err := http.Get(ts.URL + PathBlobPrefix + ur.Sum)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET blob: %s", resp.Status)
	}
	if got := resp.Header.Get(HeaderSum); got != ur.Sum {
		t.Errorf("blob response echoes sum %q, want %q", got, ur.Sum)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("blob body is not gzip: %v", err)
	}
	got, err := snap.LoadAuto(zr)
	if err != nil {
		t.Fatalf("blob body does not decode: %v", err)
	}
	sum, _, err := archive.ChecksumSnap(got)
	if err != nil {
		t.Fatal(err)
	}
	if sum != ur.Sum {
		t.Errorf("fetched blob re-checksums to %s, want %s", sum[:8], ur.Sum[:8])
	}

	if resp, err := http.Get(ts.URL + PathBlobPrefix + strings.Repeat("0", 64)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET unknown blob: %s, want 404", resp.Status)
		}
	}
	if resp, err := http.Get(ts.URL + PathBlobPrefix + "xyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET malformed sum: %s, want 400", resp.Status)
		}
	}
}
