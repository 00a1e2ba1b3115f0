package loopback

import (
	"net/http"
	"path/filepath"
	"testing"

	"traceback/internal/archive"
	"traceback/internal/collect"
	"traceback/internal/shard/gate"
	"traceback/internal/snap"
)

func mkSnap(n int) *snap.Snap {
	return &snap.Snap{
		Host: "h1", Process: "app", PID: 100 + n, RuntimeID: uint64(n),
		Reason: "exception SIGSEGV", Signal: 11, Time: uint64(1000 * (n + 1)),
		Modules: []snap.ModuleInfo{{Name: "app", Checksum: "c00", DAGCount: 1}},
		Buffers: []snap.BufferDump{{Kind: snap.BufMain, OwnerTID: 1, LastKnown: true,
			SubWords: 4, Raw: []byte{byte(n), 0, 0, 0}}},
	}
}

// TestNodeKillRestartSameAddress: a killed node refuses connections
// but keeps its warehouse; restarted, it serves that warehouse — new
// ingests included — from a fresh daemon on the very same URL.
func TestNodeKillRestartSameAddress(t *testing.T) {
	n, err := StartNode(filepath.Join(t.TempDir(), "wh"), collect.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	s := mkSnap(1)
	if _, err := n.Arch.IngestUnique(s, archive.SignSnap(s, nil)); err != nil {
		t.Fatal(err)
	}
	url, srv := n.URL, n.Srv
	before, err := Fetch(url + collect.PathBuckets)
	if err != nil {
		t.Fatal(err)
	}

	if err := n.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if !srv.Draining() {
		t.Error("killed daemon never entered its drain")
	}
	if _, err := http.Get(url + collect.PathHealth); err == nil {
		t.Fatal("killed node still accepts connections")
	}
	// A cleanup's Kill after the test's own must not wait for a second
	// Serve return that never comes.
	if err := n.Kill(); err != nil {
		t.Fatalf("second kill: %v", err)
	}

	if err := n.Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer n.Kill()
	if n.URL != url {
		t.Fatalf("restarted on %s, want the same address %s", n.URL, url)
	}
	if n.Srv == srv || n.Srv.Draining() {
		t.Error("restart did not build a fresh daemon")
	}
	after, err := Fetch(url + collect.PathBuckets)
	if err != nil {
		t.Fatalf("restarted node: %v", err)
	}
	if string(after) != string(before) {
		t.Errorf("restarted node serves a different warehouse:\n%s\nvs\n%s", after, before)
	}
}

// TestGateOverNodes: StartGate serves the merged fleet, Flagged reads
// a regression report off either tier, and Fetch refuses a non-200.
func TestGateOverNodes(t *testing.T) {
	n, err := StartNode(filepath.Join(t.TempDir(), "wh"), collect.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	defer n.Kill()
	s := mkSnap(2)
	sig := archive.SignSnap(s, nil)
	if _, err := n.Arch.IngestUnique(s, sig); err != nil {
		t.Fatal(err)
	}
	g, err := StartGate([]string{n.URL}, gate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Kill()

	for _, base := range []string{n.URL, g.URL} {
		flagged, err := Flagged(base)
		if err != nil {
			t.Fatalf("%s: %v", base, err)
		}
		// A lone fresh signature only exists in the newest window: new.
		if len(flagged) != 1 || !flagged[sig.ID] {
			t.Errorf("%s flagged %v, want exactly %s", base, flagged, sig.ID)
		}
	}
	if _, err := Fetch(g.URL + collect.PathRates); err == nil {
		t.Error("Fetch accepted a 400 answer")
	}
}
