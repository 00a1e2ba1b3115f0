// shardcheck is the sharded-warehouse and fleet-triage CI gate
// (`make shard-check`): on the loopback harness (internal/loopback) it
// boots a 3-shard fleet (three tbcollectd servers over loopback TCP),
// a fan-out gate over them, a single-node reference daemon and a
// shard-aware agent, stages the seeded two-phase campaign
// (loopback.StageCampaign) through both, and asserts the properties
// the multi-node design and the regression detector stand on:
//
//  1. Byte-equivalence under healthy placement: a fleet of snaps
//     uploaded through the shard-aware agent lands so that the union
//     of the three shard journals reduces to index bytes identical to
//     a single node ingesting the same fleet, and the gate's merged
//     /v1/buckets, /v1/top and /v1/regressions match the single
//     node's byte for byte. Asked again with nothing written, every
//     route answers the same bytes from 304s alone: each shard
//     revalidates its list (gate_shard_not_modified_total) and no
//     merge runs (gate_merge_nanos).
//  2. Fleet triage: GET /v1/regressions — on the gate, and so by (1)
//     on the single daemon — flags exactly the campaign-only
//     signatures and no steady one; after the single node drains, the
//     same classification computed from its store directory (the
//     `tbstore regressions` path) flags the identical set, and the
//     index rebuilt from its journal alone is byte-identical to the
//     live index, rate windows included.
//  3. Kill/restart loses nothing: with one shard down mid-campaign,
//     uploads redirect to the next live shard (counted in
//     coll_agent_failover_total and flight-recorded); after the shard
//     restarts on the same address, every uploaded snap is resident
//     somewhere, every signature is present in the gate's merged
//     view, and the spool is empty. The first query after the restart
//     fetches the restarted shard's list again — same journal, new
//     epoch, so the tag the gate held no longer matches — and the one
//     after that is all 304s again. Byte-equivalence is deliberately
//     NOT asserted here: a failover may journal the same content on
//     two shards, which inflates occurrence counts — the design trade
//     documented in internal/shard.
//
// Everything is seeded and snap times are synthetic, so the whole
// gate is deterministic. Any violation exits nonzero with a diagnosis.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"traceback/internal/archive"
	"traceback/internal/collect"
	"traceback/internal/loopback"
	"traceback/internal/shard"
	"traceback/internal/shard/gate"
	"traceback/internal/telemetry"
	"traceback/internal/triage"
)

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "shardcheck: "+format+"\n", args...)
	os.Exit(1)
}

// must dies on a harness failure; the assertions proper carry their
// own diagnoses.
func must[T any](v T, err error) T {
	if err != nil {
		die("%v", err)
	}
	return v
}

const shards = 3

func main() {
	camp := must(loopback.StageCampaign())
	maps, steady, injected := camp.Maps, camp.Steady, camp.Injected

	root := must(os.MkdirTemp("", "shardcheck-*"))
	defer os.RemoveAll(root)

	// Boot the fleet: three shards, a gate over them, and a single-node
	// reference, all over the same map set.
	ring := must(shard.NewRing(shards))
	opts := collect.ServerOptions{Maps: maps, MaxInflight: 8}
	nodes := make([]*loopback.Node, shards)
	urls := make([]string, shards)
	for i := range nodes {
		nodes[i] = must(loopback.StartNode(filepath.Join(root, fmt.Sprintf("shard%d", i)), opts))
		defer nodes[i].Close()
		urls[i] = nodes[i].URL
	}
	single := must(loopback.StartNode(filepath.Join(root, "single"), opts))
	gw := must(loopback.StartGate(urls, gate.Options{Maps: maps}))

	// The shard-aware agent: one spool, the fleet's URL list in ring
	// order, quick retries (loopback failures are cheap).
	spool := filepath.Join(root, "spool")
	reg := telemetry.New()
	failovers := reg.Counter("coll_agent_failover_total", "")
	ag := must(collect.NewFleetAgent(spool, urls, collect.AgentOptions{
		BackoffBase: 10 * time.Millisecond, BackoffMax: 250 * time.Millisecond,
		Seed: 1, Telemetry: reg,
	}))
	drain := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := ag.Drain(ctx); err != nil {
			die("drain: %v", err)
		}
	}

	// ---- Phase 1: healthy placement, byte-equivalence. ----
	// The whole campaign, spooled through the agent AND mirrored into
	// the single node.
	for _, s := range camp.Snaps {
		must(collect.Spool(spool, s))
		must(single.Arch.IngestUnique(s, archive.SignSnap(s, maps)))
	}
	drain()

	if got := failovers.Load(); got != 0 {
		die("healthy fleet recorded %d failover(s)", got)
	}
	// Placement respected: every blob is resident on its ring home.
	for i, n := range nodes {
		for _, b := range n.Arch.Buckets() {
			for _, ref := range b.Snaps {
				if home := must(ring.Place(ref.Sum)); home != i {
					die("blob %s resident on shard %d, ring homes it on %d", ref.Sum[:12], i, home)
				}
			}
		}
	}
	// Union of the shard journals reduces to the single node's exact
	// index bytes.
	var union []archive.JournalRecord
	for i, n := range nodes {
		if err := n.Arch.Flush(); err != nil {
			die("flushing shard %d: %v", i, err)
		}
		f := must(os.Open(n.Arch.JournalPath()))
		recs, err := archive.DecodeJournal(f)
		f.Close()
		if err != nil {
			die("shard %d journal: %v", i, err)
		}
		union = append(union, recs...)
	}
	if !bytes.Equal(must(archive.IndexBytesOf(union)), must(single.Arch.IndexBytes())) {
		die("union of shard journals does not reduce to the single-node index bytes")
	}
	// And the gate's merged view matches the single daemon on the wire
	// — the second time round without a body transferred or a merge run.
	notModified := gw.Gate.Metrics().Counter("gate_shard_not_modified_total", "")
	merges := gw.Gate.Metrics().Histogram("gate_merge_nanos", "", nil)
	// revalidated asks the gate one route and requires the answer to
	// have cost a 304 from every shard and nothing else.
	revalidated := func(route string) []byte {
		n, m := notModified.Load(), merges.Count()
		body := must(loopback.Fetch(gw.URL + route))
		if got := notModified.Load() - n; got != shards {
			die("gate %s with no shard changed: %d shard(s) answered 304, want all %d", route, got, shards)
		}
		if got := merges.Count() - m; got != 0 {
			die("gate %s with no shard changed ran %d merge(s)", route, got)
		}
		return body
	}
	for _, route := range []string{collect.PathBuckets, collect.PathTop + "?n=5", collect.PathRegressions} {
		gateBody := must(loopback.Fetch(gw.URL + route))
		singleBody := must(loopback.Fetch(single.URL + route))
		if !bytes.Equal(gateBody, singleBody) {
			die("gate %s differs from single node:\ngate:\n%s\nsingle:\n%s", route, gateBody, singleBody)
		}
		if again := revalidated(route); !bytes.Equal(again, gateBody) {
			die("gate %s answered differently from 304s than from bodies:\n%s\nvs\n%s", route, again, gateBody)
		}
	}

	// ---- Phase 2: fleet triage, on the wire and from the store. ----
	flagged := must(loopback.Flagged(gw.URL))
	for sig := range injected {
		if !flagged[sig] {
			die("gate /v1/regressions did not flag injected campaign signature %s", sig)
		}
	}
	for sig := range flagged {
		if !injected[sig] {
			die("gate /v1/regressions flagged %s, which was not injected", sig)
		}
	}
	// Drain the single node and reopen its store the way tbstore does:
	// local triage must flag the identical set, and the journal must
	// reproduce the index bit-for-bit.
	if err := single.Kill(); err != nil {
		die("single-node drain: %v", err)
	}
	if err := single.Close(); err != nil {
		die("closing single-node store: %v", err)
	}
	local := must(archive.Open(filepath.Join(root, "single")))
	localFlagged := loopback.FlaggedSet(triage.Classify(local.Buckets(), local.NewestTime(), triage.Defaults()))
	for sig := range flagged {
		if !localFlagged[sig] {
			die("wire flagged %s but local triage did not", sig)
		}
	}
	for sig := range localFlagged {
		if !flagged[sig] {
			die("local triage flagged %s but the wire did not", sig)
		}
	}
	if !bytes.Equal(must(local.IndexBytes()), must(local.RebuildIndexBytes())) {
		die("journal-rebuilt index differs from live index")
	}
	if err := local.Close(); err != nil {
		die("%v", err)
	}

	// ---- Phase 3: kill/restart mid-campaign loses nothing. ----
	const W = archive.WindowWidth
	victim := 1
	var sums []string
	// spoolLate stages every scenario snap at a fresh time past the
	// campaign: unique content in the newest window.
	spoolLate := func(at uint64) {
		for i, b := range camp.Builts {
			for j, s := range b.Snaps {
				cp := *s
				cp.Time = at + uint64(i*16+j)
				sum, _, err := archive.ChecksumSnap(&cp)
				if err != nil {
					die("%v", err)
				}
				sums = append(sums, sum)
				must(collect.Spool(spool, &cp))
			}
		}
	}
	spoolLate(loopback.Horizon * W)
	homes := uint64(0)
	for _, sum := range sums {
		if must(ring.Place(sum)) == victim {
			homes++
		}
	}
	if homes == 0 {
		die("no late snap homes on shard %d; the kill/restart phase needs one", victim)
	}
	if err := nodes[victim].Kill(); err != nil {
		die("killing shard %d: %v", victim, err)
	}
	drain() // failover carries shard 1's snaps to the next live shard
	if got := failovers.Load(); got < homes {
		die("coll_agent_failover_total = %d after kill, want at least %d", got, homes)
	}
	if !hasFlightEvent(reg, "coll-agent-failover") {
		die("no coll-agent-failover flight event recorded")
	}
	if err := nodes[victim].Restart(); err != nil {
		die("restarting shard %d: %v", victim, err)
	}
	// The restarted shard's journal is what it was when the gate last
	// heard from it, but its list must be fetched again, not trusted
	// across the restart: the shard refuses the old tag, and the gate
	// records the new epoch.
	afterRestart := must(loopback.Fetch(gw.URL + collect.PathBuckets))
	if got := nodes[victim].Srv.Metrics().Counter("coll_buckets_not_modified_total", "").Load(); got != 0 {
		die("restarted shard %d answered 304 to a tag from its previous life", victim)
	}
	if !hasFlightEvent(gw.Gate.Metrics(), "gate-shard-epoch") {
		die("no gate-shard-epoch flight event after shard %d restarted", victim)
	}
	if again := revalidated(collect.PathBuckets); !bytes.Equal(again, afterRestart) {
		die("gate /v1/buckets changed between two queries with nothing written")
	}

	// A second late batch lands after the restart — the fleet is whole
	// again, so placement must hold for it.
	spoolLate(loopback.Horizon*W + W/2)
	drain()

	// Nothing lost: every uploaded sum is resident on some shard, and
	// the gate still merges every signature.
	for _, sum := range sums {
		found := false
		for _, n := range nodes {
			found = found || n.Arch.Has(sum)
		}
		if !found {
			die("blob %s lost across kill/restart", sum[:12])
		}
	}
	var tr collect.TopResponse
	if err := json.Unmarshal(must(loopback.Fetch(gw.URL+collect.PathBuckets)), &tr); err != nil {
		die("gate buckets: %v", err)
	}
	merged := map[string]bool{}
	for _, b := range tr.Buckets {
		merged[b.Sig] = true
	}
	for sig := range steady {
		if !merged[sig] {
			die("steady signature %s missing from the gate after kill/restart", sig)
		}
	}
	for sig := range injected {
		if !merged[sig] {
			die("injected signature %s missing from the gate after kill/restart", sig)
		}
	}

	// Shut the fleet down cleanly.
	for i, n := range nodes {
		if err := n.Kill(); err != nil {
			die("stopping shard %d: %v", i, err)
		}
	}
	if err := gw.Kill(); err != nil {
		die("gate shutdown: %v", err)
	}

	fmt.Printf("shardcheck: OK — %d shard(s): union byte-identical to single node, %d steady signature(s) over %d windows, gate flagged %d/%d injected (local triage agrees, journal-rebuild identical), kill/restart redirected %d upload(s) and lost nothing\n",
		shards, len(steady), loopback.Horizon, len(injected), len(injected), failovers.Load())
}

func hasFlightEvent(reg *telemetry.Registry, kind string) bool {
	for _, e := range reg.FlightRecorder().Events() {
		if e.Kind == kind {
			return true
		}
	}
	return false
}
