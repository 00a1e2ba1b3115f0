package gate

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"traceback/internal/archive"
	"traceback/internal/collect"
	"traceback/internal/shard"
	"traceback/internal/snap"
)

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

// newFleet builds n shard daemons plus a single-node daemon holding
// the same fleet, ingesting snaps split by ring placement.
func newFleet(t *testing.T, n, snaps int) (bases []string, archs []*archive.Archive, srvs []*collect.Server, single *httptest.Server) {
	t.Helper()
	ring, err := shard.NewRing(n)
	if err != nil {
		t.Fatal(err)
	}
	singleArch := openArch(t, filepath.Join(t.TempDir(), "single"))
	for i := 0; i < n; i++ {
		arch := openArch(t, filepath.Join(t.TempDir(), fmt.Sprintf("s%d", i)))
		srv := collect.NewServer(arch, collect.ServerOptions{})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		bases = append(bases, ts.URL)
		archs = append(archs, arch)
		srvs = append(srvs, srv)
	}
	for i := 0; i < snaps; i++ {
		s := mkSnap(i%4, fmt.Sprintf("h%d", i%3), uint64(1+i)*archive.WindowWidth/2)
		sig := archive.SignSnap(s, nil)
		if _, err := singleArch.IngestUnique(s, sig); err != nil {
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
		if _, err := archs[home].IngestUnique(s, sig); err != nil {
			t.Fatal(err)
		}
	}
	singleSrv := collect.NewServer(singleArch, collect.ServerOptions{})
	single = httptest.NewServer(singleSrv.Handler())
	t.Cleanup(single.Close)
	return bases, archs, srvs, single
}

func newGate(t *testing.T, bases []string) *httptest.Server {
	t.Helper()
	g, err := New(bases, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestGateMatchesSingleNode: every triage route through the gate
// answers byte-identically to a single daemon that ingested the whole
// fleet — the merge-as-pure-fold property, end to end over the wire.
func TestGateMatchesSingleNode(t *testing.T) {
	bases, _, _, single := newFleet(t, 3, 24)
	gw := newGate(t, bases)

	var sig string
	{
		_, body := get(t, single.URL+collect.PathBuckets)
		var tr collect.TopResponse
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatal(err)
		}
		if len(tr.Buckets) < 2 {
			t.Fatalf("fleet built only %d bucket(s)", len(tr.Buckets))
		}
		sig = tr.Buckets[0].Sig
	}

	routes := []string{
		collect.PathBuckets,
		collect.PathTop + "?n=2",
		collect.PathTop,
		collect.PathRegressions,
		collect.PathRates + "?sig=" + sig[:8],
		collect.PathClusters,
		// The error cases are part of the surface too.
		collect.PathTop + "?n=-1",
		collect.PathTop + "?n=x",
		collect.PathRates,
		collect.PathRates + "?sig=ffffffffffff",
	}
	for _, route := range routes {
		wantCode, want := get(t, single.URL+route)
		gotCode, got := get(t, gw.URL+route)
		if gotCode != wantCode {
			t.Errorf("%s: gate answered %d, single node %d", route, gotCode, wantCode)
			continue
		}
		if string(got) != string(want) {
			t.Errorf("%s: gate response differs from single node\ngate:\n%s\nsingle:\n%s", route, got, want)
		}
	}
}

// TestGateValidatesBeforeFanOut: a malformed request is refused on
// its own merits — 400, not the 502 of the dead shard behind it — and
// costs no fan-out round.
func TestGateValidatesBeforeFanOut(t *testing.T) {
	bases, _, _, _ := newFleet(t, 2, 4)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	bases[1] = dead.URL
	g, err := New(bases, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()
	fanouts := g.Metrics().Counter("gate_fanouts_total", "")

	if code, _ := get(t, ts.URL+collect.PathTop); code != http.StatusBadGateway {
		t.Fatalf("top with a dead shard: %d, want 502", code)
	}
	before := fanouts.Load()
	for _, route := range []string{collect.PathTop + "?n=x", collect.PathRates} {
		if code, _ := get(t, ts.URL+route); code != http.StatusBadRequest {
			t.Errorf("%s with a dead shard: %d, want 400", route, code)
		}
	}
	if got := fanouts.Load(); got != before {
		t.Errorf("malformed requests cost %d fan-out round(s)", got-before)
	}
}

// TestGateShutdownBeforeServe: a Shutdown that wins the race with the
// serving goroutine must still stop it — Serve returns ErrServerClosed
// instead of accepting forever on a listener nobody will close.
func TestGateShutdownBeforeServe(t *testing.T) {
	g, err := New([]string{"http://127.0.0.1:1"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- g.Serve(l) }()
	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve after Shutdown: %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve after Shutdown never returned")
	}
}

// TestGateLoadSnapFindsFailoverResidue: a blob resident only off its
// home shard (the footprint of an agent failover) is still found by
// the gate's fallback scan.
func TestGateLoadSnapFindsFailoverResidue(t *testing.T) {
	bases, archs, _, _ := newFleet(t, 2, 0)
	ring, err := shard.NewRing(2)
	if err != nil {
		t.Fatal(err)
	}

	s := mkSnap(1, "h1", 1000)
	sum, _, err := archive.ChecksumSnap(s)
	if err != nil {
		t.Fatal(err)
	}
	home, err := ring.Place(sum)
	if err != nil {
		t.Fatal(err)
	}
	away := (home + 1) % 2
	if _, err := archs[away].IngestUnique(s, archive.SignSnap(s, nil)); err != nil {
		t.Fatal(err)
	}

	g, err := New(bases, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.LoadSnap(sum)
	if err != nil {
		t.Fatalf("LoadSnap across shards: %v", err)
	}
	gotSum, _, err := archive.ChecksumSnap(got)
	if err != nil {
		t.Fatal(err)
	}
	if gotSum != sum {
		t.Errorf("fetched snap re-checksums to %s, want %s", gotSum[:8], sum[:8])
	}
}

// TestGateShardDownFailsClosed: with one shard unreachable, queries
// answer 502 (a partial merge would be silently wrong) and /healthz
// reports degraded with the per-shard breakdown.
func TestGateShardDownFailsClosed(t *testing.T) {
	bases, _, srvs, _ := newFleet(t, 3, 12)
	// Rebind shard 2's URL to a dead server.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	bases[2] = dead.URL
	gw := newGate(t, bases)

	if code, _ := get(t, gw.URL+collect.PathBuckets); code != http.StatusBadGateway {
		t.Errorf("buckets with a dead shard: %d, want 502", code)
	}
	code, body := get(t, gw.URL+collect.PathHealth)
	if code != http.StatusServiceUnavailable {
		t.Errorf("healthz with a dead shard: %d, want 503", code)
	}
	var hr HealthResponse
	if err := json.Unmarshal(body, &hr); err != nil {
		t.Fatal(err)
	}
	if hr.State != HealthDegraded {
		t.Errorf("state %q, want %q", hr.State, HealthDegraded)
	}
	if len(hr.Shards) != 3 || hr.Shards[2].State != "down" {
		t.Errorf("per-shard states %+v, want shard 2 down", hr.Shards)
	}

	// A draining shard also degrades the gate, with its own state.
	srvs[1].BeginDrain()
	_, body = get(t, gw.URL+collect.PathHealth)
	if err := json.Unmarshal(body, &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Shards[1].State != collect.HealthDraining {
		t.Errorf("draining shard reports %q, want %q", hr.Shards[1].State, collect.HealthDraining)
	}
}
