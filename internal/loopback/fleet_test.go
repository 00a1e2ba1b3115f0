package loopback

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"traceback/internal/archive"
	"traceback/internal/collect"
	"traceback/internal/fault"
	"traceback/internal/recon"
	"traceback/internal/scenario"
	"traceback/internal/shard"
	"traceback/internal/shard/gate"
	"traceback/internal/snap"
	"traceback/internal/telemetry"
	"traceback/internal/triage"
)

// The end-to-end gates of the fleet plane: real snaps, real mapfiles,
// real loopback TCP, agents racing daemons and a shard killed
// mid-upload — under the race detector like every other test.

func check(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func indexBytes(t *testing.T, a *archive.Archive) []byte {
	t.Helper()
	b, err := a.IndexBytes()
	check(t, err)
	return b
}

func drain(t *testing.T, ag *collect.Agent) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	check(t, ag.Drain(ctx))
}

// TestCommittedFleetWireEqualsDirect: each committed snap tree under
// its own committed mapfiles — the example fleet snaps/ and the
// campaign output snaps/regressions/ (embedded recordings, wrapped
// and managed snaps, a seeded-known-bad snap) — stores completely (no
// snap a duplicate of another), under strong signatures except for
// the corpus's expect-violation snaps, which must sign weak. Pushed
// through tbagent→tbcollectd at every ingest bound — two agents
// racing, so uploads interleave arbitrarily — the tree leaves the
// daemon an index byte-identical to the direct in-process ingest,
// and the daemon's journal rebuilds that index byte for byte. The
// agents spool the committed files under their committed names, not
// content addresses: addressing a foreign-named file is the agent's
// job.
func TestCommittedFleetWireEqualsDirect(t *testing.T) {
	root, err := scenario.Root()
	check(t, err)
	trees := []*committedTree{
		ingestDirect(t, "snaps", filepath.Join(root, "snaps"), false),
		ingestDirect(t, "regressions", filepath.Join(root, "snaps", "regressions"), true),
	}
	for _, inflight := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("inflight=%d", inflight), func(t *testing.T) {
			for _, tree := range trees {
				t.Run(tree.name, func(t *testing.T) { shipTree(t, tree, inflight) })
			}
		})
	}
}

// committedTree is one committed snap tree and the index its direct
// ingest produced.
type committedTree struct {
	name    string
	paths   []string
	mapsDir string
	want    []byte
}

// ingestDirect ingests the snaps of dir in-process under dir/maps. A
// corpus tree's manifest names the snaps that must sign weak.
func ingestDirect(t *testing.T, name, dir string, corpus bool) *committedTree {
	t.Helper()
	weak := map[string]bool{}
	if corpus {
		c, err := fault.LoadCorpus(dir)
		check(t, err)
		for _, cc := range c.Cases {
			for _, snapName := range cc.Snaps {
				weak[snapName] = cc.Expect == fault.ExpectViolation
			}
		}
	}
	paths, err := snap.ExpandPaths([]string{dir}, nil)
	check(t, err)
	mapsDir := filepath.Join(dir, "maps")
	maps, _, err := recon.NewMapDir(mapsDir)
	check(t, err)

	direct, err := archive.Open(filepath.Join(t.TempDir(), name))
	check(t, err)
	defer direct.Close()
	for _, p := range paths {
		s, err := snap.LoadFile(p)
		check(t, err)
		res, err := direct.Ingest(s, archive.SignSnap(s, maps))
		check(t, err)
		base := filepath.Base(p)
		if res.Dup {
			t.Errorf("%s duplicates another committed snap", base)
		}
		if res.Sig.Weak != weak[base] {
			t.Errorf("%s signs weak=%v (%s), want weak=%v: only a seeded-known-bad snap may fail to reconstruct",
				base, res.Sig.Weak, res.Sig.Title, weak[base])
		}
	}
	return &committedTree{name: name, paths: paths, mapsDir: mapsDir, want: indexBytes(t, direct)}
}

// shipTree pushes the tree's committed files through two racing
// agents into a fresh daemon bounded at inflight, and holds the
// daemon's live and journal-rebuilt index to the direct ingest's.
func shipTree(t *testing.T, tree *committedTree, inflight int) {
	work := t.TempDir()
	maps, _, err := recon.NewMapDir(tree.mapsDir)
	check(t, err)
	node, err := StartNode(filepath.Join(work, "wh"), collect.ServerOptions{
		Maps: maps, MaxInflight: inflight,
	})
	check(t, err)
	defer node.Close()
	defer node.Kill()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		spool := filepath.Join(work, fmt.Sprintf("spool%d", i))
		check(t, os.Mkdir(spool, 0o755))
		for j := i; j < len(tree.paths); j += len(errs) {
			b, err := os.ReadFile(tree.paths[j])
			check(t, err)
			check(t, os.WriteFile(filepath.Join(spool, filepath.Base(tree.paths[j])), b, 0o644))
		}
		ag, err := collect.NewFleetAgent(spool, []string{node.URL}, collect.AgentOptions{
			BackoffBase: 5 * time.Millisecond, BackoffMax: 100 * time.Millisecond, Seed: 1,
		})
		check(t, err)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = ag.Drain(context.Background())
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		check(t, err)
	}
	got := indexBytes(t, node.Arch)
	if !bytes.Equal(got, tree.want) {
		t.Errorf("index after agent→daemon upload differs from direct ingest:\n--- wire ---\n%s\n--- direct ---\n%s", got, tree.want)
	}
	rebuilt, err := node.Arch.RebuildIndexBytes()
	check(t, err)
	if !bytes.Equal(rebuilt, got) {
		t.Errorf("index rebuilt from the daemon's journal differs from its live index:\n--- rebuilt ---\n%s\n--- live ---\n%s", rebuilt, got)
	}
}

// TestLoneDaemonDrainRefusesUploads: a draining daemon says so in its
// answer to the upload itself — 503 with Retry-After — so a one-daemon
// agent keeps the snap spooled, waits out the hint and journals
// nothing; once the daemon is killed and restarted on its address, the
// next drain commits the snap.
func TestLoneDaemonDrainRefusesUploads(t *testing.T) {
	node, err := StartNode(filepath.Join(t.TempDir(), "wh"), collect.ServerOptions{})
	check(t, err)
	t.Cleanup(func() { node.Kill(); node.Close() })
	node.Srv.BeginDrain()

	spool := t.TempDir()
	path, err := collect.Spool(spool, mkSnap(1))
	check(t, err)
	body, err := os.ReadFile(path)
	check(t, err)
	resp, err := http.Post(node.URL+collect.PathSnap, "application/gzip", bytes.NewReader(body))
	check(t, err)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("upload to a draining daemon: %s, Retry-After %q; want 503 with a hint",
			resp.Status, resp.Header.Get("Retry-After"))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var slept time.Duration
	ag, err := collect.NewFleetAgent(spool, []string{node.URL}, collect.AgentOptions{
		BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond, Seed: 1,
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept = d
			cancel() // give up during the first wait
			return ctx.Err()
		},
	})
	check(t, err)
	if err := ag.Drain(ctx); err == nil {
		t.Fatal("drain against a draining daemon reported success")
	}
	if slept < time.Second {
		t.Errorf("the agent waited %v, want at least the 1s Retry-After", slept)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("the refused snap left the spool: %v", err)
	}
	check(t, node.Kill())
	check(t, node.Arch.Flush())
	f, err := os.Open(node.Arch.JournalPath())
	check(t, err)
	recs, err := archive.DecodeJournal(f)
	f.Close()
	check(t, err)
	if len(recs) != 0 || node.Arch.NumBlobs() != 0 {
		t.Fatalf("a draining daemon journaled %d record(s), stored %d blob(s)", len(recs), node.Arch.NumBlobs())
	}

	check(t, node.Restart())
	drain(t, ag)
	sum, _, err := archive.ChecksumSnap(mkSnap(1))
	check(t, err)
	if !node.Arch.Has(sum) {
		t.Error("the snap did not land after the restart")
	}
}

func hasFlightEvent(reg *telemetry.Registry, kind string) bool {
	for _, e := range reg.FlightRecorder().Events() {
		if e.Kind == kind {
			return true
		}
	}
	return false
}

func sameSet(t *testing.T, what string, got, want map[string]bool) {
	t.Helper()
	for sig := range want {
		if !got[sig] {
			t.Errorf("%s: %s missing", what, sig)
		}
	}
	for sig := range got {
		if !want[sig] {
			t.Errorf("%s: %s unexpected", what, sig)
		}
	}
}

// TestShardedCampaign stages the seeded two-phase campaign
// (StageCampaign) through a three-shard fleet behind a gate — uploaded
// by one shard-aware agent — and, mirrored, into a single reference
// node. Snap times are synthetic and everything is seeded, so the
// whole test is deterministic. The phases share the fleet and run in
// order; one that fails stops the rest.
func TestShardedCampaign(t *testing.T) {
	const shards = 3
	camp, err := StageCampaign()
	check(t, err)
	root := t.TempDir()
	ring, err := shard.NewRing(shards)
	check(t, err)
	opts := collect.ServerOptions{Maps: camp.Maps, MaxInflight: 8}
	nodes := make([]*Node, shards)
	urls := make([]string, shards)
	for i := range nodes {
		nodes[i], err = StartNode(filepath.Join(root, fmt.Sprintf("shard%d", i)), opts)
		check(t, err)
		n := nodes[i] // through n, not n.Arch: a restart reopens the warehouse
		t.Cleanup(func() { n.Kill(); n.Close() })
		urls[i] = n.URL
	}
	single, err := StartNode(filepath.Join(root, "single"), opts)
	check(t, err)
	t.Cleanup(func() { single.Kill(); single.Close() })
	gw, err := StartGate(urls, gate.Options{Maps: camp.Maps})
	check(t, err)
	t.Cleanup(func() { gw.Kill() })

	spool := filepath.Join(root, "spool")
	reg := telemetry.New()
	failovers := reg.Counter("coll_agent_failover_total", "")
	ag, err := collect.NewFleetAgent(spool, urls, collect.AgentOptions{
		BackoffBase: 10 * time.Millisecond, BackoffMax: 250 * time.Millisecond, Seed: 1, Telemetry: reg,
	})
	check(t, err)

	phase := func(name string, f func(t *testing.T)) {
		if !t.Failed() {
			t.Run(name, f)
		}
	}

	// Healthy placement: every blob lands on its ring home with no
	// failover, and the union of the three shard journals reduces to
	// the single node's exact index bytes.
	phase("placement and journal union", func(t *testing.T) {
		for _, s := range camp.Snaps {
			_, err := collect.Spool(spool, s)
			check(t, err)
			_, err = single.Arch.IngestUnique(s, archive.SignSnap(s, camp.Maps))
			check(t, err)
		}
		drain(t, ag)
		if got := failovers.Load(); got != 0 {
			t.Errorf("healthy fleet recorded %d failover(s)", got)
		}
		var union []archive.JournalRecord
		for i, n := range nodes {
			for _, b := range n.Arch.Buckets() {
				for _, ref := range b.Snaps {
					if home, err := ring.Place(ref.Sum); err != nil || home != i {
						t.Errorf("blob %s resident on shard %d, ring homes it on %d (%v)", ref.Sum[:12], i, home, err)
					}
				}
			}
			check(t, n.Arch.Flush())
			f, err := os.Open(n.Arch.JournalPath())
			check(t, err)
			recs, err := archive.DecodeJournal(f)
			f.Close()
			check(t, err)
			union = append(union, recs...)
		}
		got, err := archive.IndexBytesOf(union)
		check(t, err)
		if !bytes.Equal(got, indexBytes(t, single.Arch)) {
			t.Error("union of shard journals does not reduce to the single-node index bytes")
		}
	})

	// Fleet triage: the gate's /v1/regressions flags exactly the
	// campaign-only signatures, and the same classification computed
	// from the drained single node's store directory — the `tbstore
	// regressions` path — flags the identical set. (That the gate and
	// the single daemon answer the same bytes is
	// gate.TestGateMatchesSingleNode.)
	phase("wire triage equals local", func(t *testing.T) {
		flagged, err := Flagged(gw.URL)
		check(t, err)
		sameSet(t, "gate /v1/regressions vs injected", flagged, camp.Injected)
		check(t, single.Kill())
		check(t, single.Close())
		local, err := archive.Open(filepath.Join(root, "single"))
		check(t, err)
		defer local.Close()
		buckets := local.Buckets()
		sameSet(t, "local triage vs the wire",
			FlaggedSet(triage.Classify(buckets, shard.NewestTime(buckets), triage.Defaults())), flagged)
	})

	// Kill/restart mid-campaign loses nothing. Byte-equivalence is
	// deliberately not asserted: a failover may journal the same
	// content on two shards, which inflates occurrence counts — the
	// trade documented in internal/shard.
	phase("kill and restart lose nothing", func(t *testing.T) {
		const W, victim = archive.WindowWidth, 1
		var sums []string
		// spoolLate stages every scenario snap at a fresh time past the
		// campaign: unique content in the newest window.
		spoolLate := func(at uint64) {
			for i, b := range camp.Builts {
				for j, s := range b.Snaps {
					cp := *s
					cp.Time = at + uint64(i*16+j)
					sum, _, err := archive.ChecksumSnap(&cp)
					check(t, err)
					sums = append(sums, sum)
					_, err = collect.Spool(spool, &cp)
					check(t, err)
				}
			}
		}
		spoolLate(Horizon * W)
		homes := uint64(0)
		for _, sum := range sums {
			if home, _ := ring.Place(sum); home == victim {
				homes++
			}
		}
		if homes == 0 {
			t.Fatalf("no late snap homes on shard %d; the phase needs one", victim)
		}
		check(t, nodes[victim].Kill())
		drain(t, ag) // failover carries the victim's snaps to the next live shard
		if got := failovers.Load(); got < homes {
			t.Errorf("coll_agent_failover_total = %d after the kill, want at least %d", got, homes)
		}
		if !hasFlightEvent(reg, "coll-agent-failover") {
			t.Error("no coll-agent-failover flight event recorded")
		}
		check(t, nodes[victim].Restart())

		// The restarted shard's journal is what it was when the gate
		// last heard from it, but its list is fetched again, not trusted
		// across the restart: the shard refuses the old tag and the gate
		// records the new epoch. Asked once more with nothing written,
		// the gate answers the same bytes from three 304s and no merge.
		afterRestart, err := Fetch(gw.URL + collect.PathBuckets)
		check(t, err)
		if got := nodes[victim].Srv.Metrics().Counter("coll_buckets_not_modified_total", "").Load(); got != 0 {
			t.Errorf("restarted shard %d answered 304 to a tag from its previous life", victim)
		}
		if !hasFlightEvent(gw.Gate.Metrics(), "gate-shard-epoch") {
			t.Errorf("no gate-shard-epoch flight event after shard %d restarted", victim)
		}
		notModified := gw.Gate.Metrics().Counter("gate_shard_not_modified_total", "")
		merges := gw.Gate.Metrics().Histogram("gate_merge_nanos", "", nil)
		n, m := notModified.Load(), merges.Count()
		again, err := Fetch(gw.URL + collect.PathBuckets)
		check(t, err)
		if !bytes.Equal(again, afterRestart) {
			t.Error("gate /v1/buckets changed between two queries with nothing written")
		}
		if got := notModified.Load() - n; got != shards {
			t.Errorf("with no shard changed, %d shard(s) answered 304, want all %d", got, shards)
		}
		if got := merges.Count() - m; got != 0 {
			t.Errorf("with no shard changed, the gate ran %d merge(s)", got)
		}

		// A second late batch lands after the restart, on a whole fleet.
		spoolLate(Horizon*W + W/2)
		drain(t, ag)

		// Nothing lost: the drain emptied the spool, every uploaded sum
		// is resident on some shard, and the gate still merges every
		// signature.
		for _, sum := range sums {
			found := false
			for _, n := range nodes {
				found = found || n.Arch.Has(sum)
			}
			if !found {
				t.Errorf("blob %s lost across kill/restart", sum[:12])
			}
		}
		body, err := Fetch(gw.URL + collect.PathBuckets)
		check(t, err)
		var tr collect.TopResponse
		check(t, json.Unmarshal(body, &tr))
		merged := map[string]bool{}
		for _, b := range tr.Buckets {
			merged[b.Sig] = true
		}
		for _, sigs := range []map[string]bool{camp.Steady, camp.Injected} {
			for sig := range sigs {
				if !merged[sig] {
					t.Errorf("signature %s missing from the gate after kill/restart", sig)
				}
			}
		}
		for _, n := range nodes {
			check(t, n.Kill())
		}
		check(t, gw.Kill())
	})
}
