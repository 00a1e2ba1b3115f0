// collectcheck is the fleet collection plane's CI gate
// (`make collect-check`): it pushes the committed snaps/ fleet over a
// real loopback TCP connection through the tbagent→tbcollectd
// protocol and asserts the wire path is indistinguishable from a
// local ingest:
//
//   - at every ingest concurrency bound (-inflight 1, 4, 16, with
//     racing agents so uploads interleave arbitrarily), the daemon's
//     index comes out byte-identical to a direct in-process ingest of
//     the same snaps under the same mapfiles;
//   - a second upload round of the identical fleet is fully absorbed
//     by the dedup precheck — zero uploads, zero new journal
//     records, one HEAD round trip per snap;
//   - a fresh re-run of the example scenarios also dedups completely
//     (the fleet is deterministic; wire transport must not change
//     that);
//   - the index rebuilt from the daemon's journal alone is
//     byte-identical to its live index;
//   - the daemon drains gracefully and flushes its index at
//     shutdown.
//
// Any violation exits nonzero with a diagnosis.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"traceback/internal/archive"
	"traceback/internal/collect"
	"traceback/internal/loopback"
	"traceback/internal/recon"
	"traceback/internal/scenario"
	"traceback/internal/snap"
)

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "collectcheck: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	snapsDir := flag.String("snaps", "snaps", "committed snap directory (mapfiles in <snaps>/maps)")
	flag.Parse()

	committed, err := snap.ExpandPaths([]string{*snapsDir}, nil)
	if err != nil {
		die("%v (run `go run ./tools/gensnaps` to regenerate the committed fleet)", err)
	}
	loader, err := recon.NewDirLoader(filepath.Join(*snapsDir, "maps"))
	if err != nil {
		die("%v", err)
	}

	tmp, err := os.MkdirTemp("", "collectcheck-*")
	if err != nil {
		die("%v", err)
	}
	defer os.RemoveAll(tmp)

	// The baseline: a direct in-process ingest of the committed fleet
	// under the same map resolver the daemon will use.
	want := directIndex(tmp, committed, loader)

	// Fresh scenario re-run, spooled once up front (shared by every
	// round's dedup check).
	freshDir := filepath.Join(tmp, "fresh")
	builts, err := scenario.All()
	if err != nil {
		die("regenerating fleet: %v", err)
	}
	var fresh []string
	for _, b := range builts {
		paths, err := b.Write(freshDir)
		if err != nil {
			die("%v", err)
		}
		fresh = append(fresh, paths...)
	}

	for _, inflight := range []int{1, 4, 16} {
		wireRound(tmp, committed, fresh, loader, inflight, want)
	}
	fmt.Printf("collectcheck: %d snap(s) over loopback at inflight 1/4/16: index parity, full precheck dedup, journal identity\n",
		len(committed))
}

// directIndex ingests every snap locally and returns the flushed
// index bytes — what the wire path must reproduce exactly.
func directIndex(tmp string, paths []string, loader *recon.DirLoader) []byte {
	arch, err := archive.Open(filepath.Join(tmp, "direct"))
	if err != nil {
		die("%v", err)
	}
	maps := recon.NewMapCache(loader.Load)
	for _, p := range paths {
		s, err := snap.LoadFile(p)
		if err != nil {
			die("%s: %v", p, err)
		}
		if _, err := arch.Ingest(s, archive.SignSnap(s, maps)); err != nil {
			die("direct ingest %s: %v", p, err)
		}
	}
	idx, err := arch.IndexBytes()
	if err != nil {
		die("%v", err)
	}
	if err := arch.Close(); err != nil {
		die("%v", err)
	}
	return idx
}

// wireRound runs one full daemon lifecycle at the given ingest bound:
// two racing agents upload the committed fleet, a third replays it
// (pure precheck dedup), a fourth pushes the fresh scenario re-run,
// and the daemon then drains gracefully.
func wireRound(tmp string, committed, fresh []string, loader *recon.DirLoader, inflight int, want []byte) {
	storeDir := filepath.Join(tmp, fmt.Sprintf("wire-%d", inflight))
	node, err := loopback.StartNode(storeDir, collect.ServerOptions{
		Maps:        recon.NewMapCache(loader.Load),
		MaxInflight: inflight,
	})
	if err != nil {
		die("%v", err)
	}
	arch, base := node.Arch, node.URL

	// Round 1: two agents race the committed fleet up the wire.
	spoolA := filepath.Join(storeDir, "spool-a")
	spoolB := filepath.Join(storeDir, "spool-b")
	for i, p := range committed {
		dst := spoolA
		if i%2 == 1 {
			dst = spoolB
		}
		spoolFile(dst, p)
	}
	var wg sync.WaitGroup
	var errA, errB error
	wg.Add(2)
	go func() { defer wg.Done(); errA = mkAgent(spoolA, base).Drain(context.Background()) }()
	go func() { defer wg.Done(); errB = mkAgent(spoolB, base).Drain(context.Background()) }()
	wg.Wait()
	if errA != nil || errB != nil {
		die("inflight %d: drain failed: %v / %v", inflight, errA, errB)
	}

	got, err := arch.IndexBytes()
	if err != nil {
		die("%v", err)
	}
	if !bytes.Equal(got, want) {
		die("inflight %d: index after agent→daemon upload differs from direct ingest:\n--- wire ---\n%s\n--- direct ---\n%s",
			inflight, got, want)
	}
	rebuilt, err := arch.RebuildIndexBytes()
	if err != nil {
		die("%v", err)
	}
	if !bytes.Equal(rebuilt, got) {
		die("inflight %d: journal-rebuilt index differs from the live index", inflight)
	}

	// Round 2: the identical fleet again. The precheck must absorb
	// every snap — no uploads, no journal growth.
	journalBefore := journalSize(storeDir)
	spoolC := filepath.Join(storeDir, "spool-c")
	for _, p := range committed {
		spoolFile(spoolC, p)
	}
	replayer := mkAgent(spoolC, base)
	if err := replayer.Drain(context.Background()); err != nil {
		die("inflight %d: replay drain: %v", inflight, err)
	}
	assertCounter(replayer, "coll_agent_dedup_skips_total", uint64(len(committed)), inflight)
	assertCounter(replayer, "coll_agent_uploads_total", 0, inflight)
	if after := journalSize(storeDir); after != journalBefore {
		die("inflight %d: replay grew the journal from %d to %d bytes", inflight, journalBefore, after)
	}

	// Round 3: the freshly regenerated fleet. Determinism survives the
	// wire: everything dedups onto the committed blobs.
	spoolD := filepath.Join(storeDir, "spool-d")
	for _, p := range fresh {
		spoolFile(spoolD, p)
	}
	regen := mkAgent(spoolD, base)
	if err := regen.Drain(context.Background()); err != nil {
		die("inflight %d: fresh drain: %v", inflight, err)
	}
	assertCounter(regen, "coll_agent_uploads_total", 0, inflight)
	if after := journalSize(storeDir); after != journalBefore {
		die("inflight %d: fresh scenario re-run stored new content over the wire; snaps/ is stale — rerun tools/gensnaps and commit", inflight)
	}

	// Graceful drain: Serve returns ErrServerClosed and the flushed
	// index.json matches the live bytes.
	if err := node.Kill(); err != nil {
		die("inflight %d: shutdown: %v", inflight, err)
	}
	if err := node.Close(); err != nil {
		die("%v", err)
	}
	flushed, err := os.ReadFile(filepath.Join(storeDir, "index.json"))
	if err != nil {
		die("%v", err)
	}
	if !bytes.Equal(flushed, got) {
		die("inflight %d: flushed index.json differs from the live index", inflight)
	}
}

func mkAgent(spool, base string) *collect.Agent {
	return collect.NewAgent(spool, base, collect.AgentOptions{
		Client:      &http.Client{Timeout: 30 * time.Second},
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  100 * time.Millisecond,
		Seed:        1,
	})
}

// spoolFile copies a committed snap file into an agent spool under
// its original name (the agent content-addresses on its own).
func spoolFile(spool, src string) {
	if err := os.MkdirAll(spool, 0o755); err != nil {
		die("%v", err)
	}
	b, err := os.ReadFile(src)
	if err != nil {
		die("%v", err)
	}
	if err := os.WriteFile(filepath.Join(spool, filepath.Base(src)), b, 0o644); err != nil {
		die("%v", err)
	}
}

func journalSize(storeDir string) int64 {
	st, err := os.Stat(filepath.Join(storeDir, "journal.jsonl"))
	if err != nil {
		die("%v", err)
	}
	return st.Size()
}

func assertCounter(ag *collect.Agent, name string, want uint64, inflight int) {
	if got := ag.Metrics().Counter(name, "").Load(); got != want {
		die("inflight %d: %s = %d, want %d", inflight, name, got, want)
	}
}
