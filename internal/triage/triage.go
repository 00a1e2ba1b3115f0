// Package triage is the fleet-health analysis layer over the snap
// warehouse: given an archive whose index carries crash-rate windows
// (internal/archive), it answers the three questions an operator asks
// before diving into any one trace — what is *new*, what is
// *spiking*, and which buckets are really the *same fault* wearing
// different wrap points or interleavings.
//
// Everything here is deterministic given the index. The classifier
// (classify.go) is a pure function of the buckets and the newest snap
// time; the similarity clustering (cluster.go) compares fault-directed
// views extracted by the deterministic reconstruction pipeline. The
// same warehouse therefore triages identically whether queried
// through `tbstore` on the archive directory or through a tbcollectd
// daemon's /v1/regressions (loopback.TestShardedCampaign holds it).
package triage

import (
	"fmt"
	"sync"
	"time"

	"traceback/internal/archive"
	"traceback/internal/recon"
	"traceback/internal/shard"
	"traceback/internal/snap"
	"traceback/internal/telemetry"
)

// The classifier's thresholds and the clustering distance. Windows
// are in archive.WindowWidth units.
const (
	// recentWindows is the width R of the "now" span: the newest R
	// rate windows, inclusive of the window holding the newest snap.
	recentWindows = 2
	// baselineWindows is the width B of the trailing baseline span
	// immediately before the recent span.
	baselineWindows = 6
	// spikeFactor flags a signature as spiking when its recent
	// per-window rate reaches spikeFactor × its baseline rate.
	spikeFactor = 4
	// minRecent is the minimum occurrence count inside the recent
	// span before a spike verdict is possible — a single crash is
	// never a spike.
	minRecent = 3
	// newWindows: a signature first seen within the newest newWindows
	// windows is new.
	newWindows = 2
	// quietWindows: a signature with no occurrence in the newest
	// quietWindows windows is quiet.
	quietWindows = 6
	// clusterDistance is the maximum normalized fault-view distance at
	// which two buckets merge into one cluster.
	clusterDistance = 0.25
)

// Config carries no settings: the thresholds are the constants above.
// It stays, empty, because bench/ passes Config{} and Defaults() to New
// and Classify; ROADMAP item 8 deletes the parameter when it revises
// the benchmark.
type Config struct{}

// Defaults returns the (empty) configuration.
func Defaults() Config { return Config{} }

// Warehouse is the index surface triage analyzes: the bucket list in
// canonical order and exemplar retrieval. *archive.Archive is the
// single-node implementation; the fan-out gate (internal/shard/gate)
// satisfies it with merged shard state, so the same analyzer triages
// a whole fleet. One Buckets call is one consistent snapshot, and
// every view is computed from exactly one: prefix resolution and the
// newest snap time ("now") are derived from that list, never asked of
// the warehouse separately, where an ingest could land in between.
type Warehouse interface {
	Buckets() []archive.Bucket
	LoadSnap(sum string) (*snap.Snap, error)
}

var _ Warehouse = (*archive.Archive)(nil)

// Analyzer computes triage views over one warehouse, caching the
// expensive parts (exemplar fault views, pairwise distances) across
// queries. Safe for concurrent use.
type Analyzer struct {
	arch Warehouse
	maps recon.MapResolver

	met metrics

	mu    sync.Mutex
	views map[string]*viewEntry // bucket sig → cached fault view
	dists map[string]float64    // "repA|repB" → normalized distance
}

type metrics struct {
	scans         *telemetry.Counter
	flagged       *telemetry.Counter
	clusterBuilds *telemetry.Counter
	exemplars     *telemetry.Counter
	distHits      *telemetry.Counter
	distMisses    *telemetry.Counter
	scanNanos     *telemetry.Histogram
	clusterNanos  *telemetry.Histogram
}

// New builds an analyzer over a warehouse (a single-node
// *archive.Archive or a fleet-merging gate). maps resolves the
// mapfiles exemplar reconstruction needs; nil disables clustering by
// fault view (every bucket becomes its own cluster). reg receives the
// triage_* metrics (nil: a private registry).
func New(arch Warehouse, maps recon.MapResolver, _ Config, reg *telemetry.Registry) *Analyzer {
	if reg == nil {
		reg = telemetry.New()
	}
	a := &Analyzer{
		arch:  arch,
		maps:  maps,
		views: map[string]*viewEntry{},
		dists: map[string]float64{},
	}
	a.met = metrics{
		scans:         reg.Counter("triage_scans_total", "regression classification scans executed"),
		flagged:       reg.Counter("triage_flagged_total", "signatures flagged new or spiking across scans"),
		clusterBuilds: reg.Counter("triage_cluster_builds_total", "similarity clusterings computed"),
		exemplars:     reg.Counter("triage_exemplar_recons_total", "bucket exemplars reconstructed for clustering"),
		distHits:      reg.Counter("triage_dist_cache_hits_total", "pairwise distances served from cache"),
		distMisses:    reg.Counter("triage_dist_cache_misses_total", "pairwise distances computed"),
		scanNanos:     reg.Histogram("triage_scan_nanos", "per-scan classification latency (ns)", telemetry.DurationBuckets()),
		clusterNanos:  reg.Histogram("triage_cluster_nanos", "per-clustering latency (ns)", telemetry.DurationBuckets()),
	}
	return a
}

// Regressions classifies every bucket against the newest snap time
// among them. The result is deterministic given the index.
func (a *Analyzer) Regressions() *Report {
	t0 := time.Now()
	defer func() { a.met.scanNanos.Observe(uint64(time.Since(t0))) }()
	buckets := a.arch.Buckets()
	rep := Classify(buckets, shard.NewestTime(buckets), Config{})
	a.met.scans.Inc()
	a.met.flagged.Add(uint64(len(rep.Flagged())))
	return rep
}

// Rates reports one signature's crash-rate windows and verdict. The
// prefix is resolved like `tbstore show` resolves bucket signatures.
func (a *Analyzer) Rates(sigPrefix string) (*RateReport, error) {
	buckets := a.arch.Buckets()
	b, err := archive.FindBucket(buckets, sigPrefix)
	if err != nil {
		return nil, err
	}
	now := shard.NewestTime(buckets)
	rep := Classify([]archive.Bucket{b}, now, Config{})
	return &RateReport{
		V: 1, Now: now, Window: archive.WindowWidth,
		Windows:    b.Windows,
		Assessment: rep.Assessments[0],
	}, nil
}

// RateReport is one signature's windowed crash-rate view.
type RateReport struct {
	V          int                  `json:"v"`
	Now        uint64               `json:"now"`
	Window     uint64               `json:"window"`
	Windows    []archive.RateWindow `json:"windows"`
	Assessment Assessment           `json:"assessment"`
}

func (r *RateReport) String() string {
	return fmt.Sprintf("%s %s: %d window(s), recent %.2f/win vs base %.2f/win",
		r.Assessment.Sig, r.Assessment.Class, len(r.Windows),
		r.Assessment.RecentRate, r.Assessment.BaseRate)
}
