// Campaign-backed triage tests. These live in an external test
// package because they drive internal/fault, which reaches triage
// through the collection plane — an import cycle from inside
// package triage. Metric assertions go through the shared registry
// (Registry.Counter dedupes by name).
package triage_test

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"traceback/internal/archive"
	"traceback/internal/fault"
	"traceback/internal/loopback"
	"traceback/internal/scenario"
	"traceback/internal/snap"
	"traceback/internal/telemetry"
	"traceback/internal/triage"
)

const W = archive.WindowWidth

func counter(reg *telemetry.Registry, name string) uint64 {
	return reg.Counter(name, "").Load()
}

// TestClassifyCampaignTwoPhase: the acceptance scenario on real
// traffic — a seeded tbfault campaign supplies the fault snaps, phase
// one replays baseline signatures across the horizon, phase two
// injects a campaign-only signature in the newest window. The
// injected signature must be flagged; the steady ones must not.
func TestClassifyCampaignTwoPhase(t *testing.T) {
	camp, err := loopback.StageCampaign()
	if err != nil {
		t.Fatal(err)
	}
	maps, steadySigs, injected := camp.Maps, camp.Steady, camp.Injected
	arch, err := archive.Open(filepath.Join(t.TempDir(), "wh"))
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	for _, s := range camp.Snaps {
		if _, err := arch.Ingest(s, archive.SignSnap(s, maps)); err != nil {
			t.Fatal(err)
		}
	}

	reg := telemetry.New()
	an := triage.New(arch, maps, triage.Config{}, reg)
	rep := an.Regressions()
	classes := map[string]triage.Class{}
	for _, a := range rep.Assessments {
		classes[a.Sig] = a.Class
	}
	for sig := range injected {
		if got := classes[sig]; got != triage.ClassNew {
			t.Errorf("injected campaign signature %s = %s, want new", sig, got)
		}
	}
	for sig := range steadySigs {
		if got := classes[sig]; got.Flagged() {
			t.Errorf("steady baseline signature %s flagged %s", sig, got)
		}
	}
	if got := counter(reg, "triage_scans_total"); got != 1 {
		t.Errorf("triage_scans_total = %d, want 1", got)
	}
	if got := reg.Histogram("triage_scan_nanos", "", nil).Count(); got != 1 {
		t.Errorf("triage_scan_nanos observed %d scans, want 1", got)
	}
	if want := uint64(len(injected)); counter(reg, "triage_flagged_total") != want {
		t.Errorf("triage_flagged_total = %d, want %d", counter(reg, "triage_flagged_total"), want)
	}
}

// clusterFleet ingests baseline crossmachine + quickstart traffic and
// a wrap-stressed crossmachine campaign trial into a fresh archive,
// returning the analyzer, its registry and the sets of signatures per
// origin.
func clusterFleet(t *testing.T) (*triage.Analyzer, *telemetry.Registry, map[string]bool, map[string]bool, map[string]bool) {
	t.Helper()
	builts, err := scenario.All()
	if err != nil {
		t.Fatal(err)
	}
	maps := scenario.MapSet(builts...)

	camp, err := fault.New(fault.Config{Seed: 11, Kinds: []string{fault.KindWrap}, Scenarios: []string{"crossmachine"}})
	if err != nil {
		t.Fatal(err)
	}
	_, wrapSnaps, wrapMaps, err := camp.Trial(fault.KindWrap, "crossmachine")
	if err != nil {
		t.Fatal(err)
	}
	for _, mf := range wrapMaps {
		maps.Add(mf)
	}

	arch, err := archive.Open(filepath.Join(t.TempDir(), "wh"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { arch.Close() })

	ingest := func(snaps []*snap.Snap, into map[string]bool) {
		for _, s := range snaps {
			sig := archive.SignSnap(s, maps)
			into[sig.ID] = true
			if _, err := arch.Ingest(s, sig); err != nil {
				t.Fatal(err)
			}
		}
	}
	cross, quick, wrap := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, b := range builts {
		switch b.Name {
		case "crossmachine":
			ingest(b.Snaps, cross)
		case "quickstart":
			ingest(b.Snaps, quick)
		}
	}
	ingest(wrapSnaps, wrap)
	reg := telemetry.New()
	return triage.New(arch, maps, triage.Config{}, reg), reg, cross, quick, wrap
}

// TestClustersSemantics: a wrap-stressed crossmachine fault lands in
// the same cluster as the baseline crossmachine fault (same root
// cause, truncated view), while quickstart faults — a different root
// cause entirely — never share a cluster with crossmachine ones.
func TestClustersSemantics(t *testing.T) {
	an, _, cross, quick, wrap := clusterFleet(t)
	rep, err := an.Clusters()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Clusters) == 0 {
		t.Fatal("no clusters")
	}
	clusterOf := map[string]int{}
	for ci, c := range rep.Clusters {
		for _, m := range c.Members {
			clusterOf[m.Sig] = ci
		}
	}
	// Every ingested signature appears exactly once.
	for sig := range cross {
		if _, ok := clusterOf[sig]; !ok {
			t.Errorf("crossmachine sig %s missing from report", sig)
		}
	}

	// No quickstart signature shares a cluster with a crossmachine one.
	for qs := range quick {
		for cs := range cross {
			if clusterOf[qs] == clusterOf[cs] {
				t.Errorf("quickstart %s clustered with crossmachine %s", qs, cs)
			}
		}
	}

	// Each wrap-trial signature either IS a baseline crossmachine
	// signature (wrap didn't change the hashed tail) or joined a
	// cluster containing one.
	for ws := range wrap {
		if cross[ws] {
			continue
		}
		joined := false
		for cs := range cross {
			if clusterOf[ws] == clusterOf[cs] {
				joined = true
			}
		}
		if !joined {
			t.Errorf("wrap-variant sig %s did not cluster with any baseline crossmachine sig", ws)
		}
	}
}

// TestClustersDeterministicAndCached: a second pass returns
// byte-identical JSON and serves every pairwise distance from cache.
func TestClustersDeterministicAndCached(t *testing.T) {
	an, reg, _, _, _ := clusterFleet(t)
	r1, err := an.Clusters()
	if err != nil {
		t.Fatal(err)
	}
	missesAfterFirst := counter(reg, "triage_dist_cache_misses_total")
	exemplars := counter(reg, "triage_exemplar_recons_total")
	if exemplars == 0 {
		t.Error("first pass reconstructed no exemplar")
	}
	r2, err := an.Clusters()
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(r1)
	j2, _ := json.Marshal(r2)
	if string(j1) != string(j2) {
		t.Errorf("clustering not deterministic:\n%s\nvs\n%s", j1, j2)
	}
	if got := counter(reg, "triage_dist_cache_misses_total"); got != missesAfterFirst {
		t.Errorf("second pass recomputed %d distances; want all served from cache", got-missesAfterFirst)
	}
	if counter(reg, "triage_dist_cache_hits_total") == 0 {
		t.Error("second pass recorded no cache hits")
	}
	if got := counter(reg, "triage_exemplar_recons_total"); got != exemplars {
		t.Errorf("second pass reconstructed %d exemplars; want all views served from cache", got-exemplars)
	}
	if got := counter(reg, "triage_cluster_builds_total"); got != 2 {
		t.Errorf("triage_cluster_builds_total = %d, want 2", got)
	}
	if got := reg.Histogram("triage_cluster_nanos", "", nil).Count(); got != 2 {
		t.Errorf("triage_cluster_nanos observed %d clusterings, want 2", got)
	}
}
