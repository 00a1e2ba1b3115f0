// Package gate is the fan-out query tier of the sharded snap
// warehouse: a thin HTTP daemon that presents N tbcollectd shards as
// one. Every triage query fans out to all shards, folds their bucket
// lists with shard.MergeBuckets, and serves the result through the
// same analyzer a single daemon uses — so an operator (or tbstore)
// pointed at a gate sees exactly the views a single node holding the
// whole fleet would serve. The gate holds no warehouse state of its
// own: shards own the journals and blobs, the gate owns only a
// per-query merged snapshot and the triage caches (cluster exemplar
// views, pairwise distances) that make repeated queries cheap.
//
// The gate is deliberately strict about partial views: a triage
// answer computed from N-1 shards is silently wrong (a missing shard
// hides counts, windows, and whole buckets), so any unreachable shard
// fails the query with 502 rather than degrading the math. /healthz
// is where degradation is reported: it aggregates per-shard states
// and answers 503 "degraded" while any shard is down or draining.
package gate

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"traceback/internal/archive"
	"traceback/internal/collect"
	"traceback/internal/recon"
	"traceback/internal/shard"
	"traceback/internal/snap"
	"traceback/internal/telemetry"
	"traceback/internal/triage"
)

// Health states the gate reports, alongside collect.HealthOK.
const (
	// HealthDegraded: at least one shard is down or draining; queries
	// are failing 502 until the fleet is whole again (HTTP 503).
	HealthDegraded = "degraded"
)

// ShardHealth is one shard's state as seen from the gate.
type ShardHealth struct {
	URL   string `json:"url"`
	State string `json:"state"` // collect.HealthOK, collect.HealthDraining, or "down"
}

// HealthResponse is the gate's answer to GET /healthz.
type HealthResponse struct {
	V      int           `json:"v"`
	State  string        `json:"state"` // "ok" or "degraded"
	Shards []ShardHealth `json:"shards"`
}

// Options configures a gate.
type Options struct {
	// Client is the HTTP client used for shard fan-out (default:
	// 30s-timeout client).
	Client *http.Client
	// Maps resolves mapfiles for cluster exemplar reconstruction; nil
	// degrades clustering exactly as it does on a single daemon.
	Maps recon.MapResolver
	// Triage overrides the fleet-health thresholds (zero: defaults).
	Triage triage.Config
	// Telemetry is the registry gate_ metrics land in (nil: private).
	Telemetry *telemetry.Registry
}

// Gate fans triage queries out across the shard fleet and merges
// deterministically. Safe for concurrent use.
type Gate struct {
	shards []string
	ring   *shard.Ring
	client *http.Client

	hs *http.Server

	mu      sync.Mutex
	buckets []archive.Bucket // last merged snapshot
	newest  uint64

	reg *telemetry.Registry
	rec *telemetry.Recorder
	met metrics
}

type metrics struct {
	fanouts     *telemetry.Counter
	fanoutFails *telemetry.Counter
	blobFetches *telemetry.Counter
	blobScans   *telemetry.Counter
	mergeNanos  *telemetry.Histogram
}

// New builds a gate over the fleet's shard base URLs, listed in the
// same ring order the agents use.
func New(shards []string, opts Options) (*Gate, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("gate: need at least one shard")
	}
	ring, err := shard.NewRing(len(shards))
	if err != nil {
		return nil, err
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 30 * time.Second}
	}
	reg := opts.Telemetry
	if reg == nil {
		reg = telemetry.New()
	}
	bases := make([]string, len(shards))
	for i, s := range shards {
		bases[i] = strings.TrimRight(s, "/")
	}
	g := &Gate{
		shards: bases,
		ring:   ring,
		client: opts.Client,
		reg:    reg,
		rec:    reg.Recorder(256),
	}
	g.met = metrics{
		fanouts:     reg.Counter("gate_fanouts_total", "shard fan-out rounds executed"),
		fanoutFails: reg.Counter("gate_fanout_errors_total", "fan-out rounds failed by an unreachable shard"),
		blobFetches: reg.Counter("gate_blob_fetches_total", "exemplar blobs fetched from shards"),
		blobScans:   reg.Counter("gate_blob_fallback_scans_total", "blob fetches that scanned past the home shard (failover residue)"),
		mergeNanos:  reg.Histogram("gate_merge_nanos", "per-round shard index merge latency (ns)", telemetry.DurationBuckets()),
	}

	// The daemon's own triage table over the merged snapshot, with a
	// fan-out refresh before every query.
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+collect.PathHealth, g.handleHealth)
	collect.MountTriage(mux, g, triage.New(g, opts.Maps, opts.Triage, reg), reg,
		func(r *http.Request) error { return g.refresh(r.Context()) })
	g.hs = &http.Server{Handler: mux}
	return g, nil
}

// Handler exposes the gate's routes (httptest-friendly).
func (g *Gate) Handler() http.Handler { return g.hs.Handler }

// Metrics returns the gate's registry.
func (g *Gate) Metrics() *telemetry.Registry { return g.reg }

// Serve accepts connections on l until Shutdown.
func (g *Gate) Serve(l net.Listener) error { return g.hs.Serve(l) }

// Shutdown stops the gate. It owns no warehouse state, so shutdown is
// just the listener.
func (g *Gate) Shutdown(ctx context.Context) error { return g.hs.Shutdown(ctx) }

// refresh fans /v1/buckets out to every shard and swaps in the merged
// snapshot. Any unreachable shard fails the whole refresh — a partial
// merge would serve wrong answers, not stale ones.
func (g *Gate) refresh(ctx context.Context) error {
	g.met.fanouts.Inc()
	lists := make([][]archive.Bucket, len(g.shards))
	errs := make([]error, len(g.shards))
	var wg sync.WaitGroup
	for i, base := range g.shards {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			lists[i], errs[i] = g.fetchBuckets(ctx, base)
		}(i, base)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			g.met.fanoutFails.Inc()
			g.rec.Record(0, "gate-fanout-error", fmt.Sprintf("shard %d (%s): %v", i, g.shards[i], err))
			return fmt.Errorf("gate: shard %d (%s): %w", i, g.shards[i], err)
		}
	}
	t0 := time.Now()
	merged := shard.MergeBuckets(lists...)
	g.met.mergeNanos.Observe(uint64(time.Since(t0)))

	g.mu.Lock()
	g.buckets = merged
	g.newest = shard.NewestTime(merged)
	g.mu.Unlock()
	return nil
}

func (g *Gate) fetchBuckets(ctx context.Context, base string) ([]archive.Bucket, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+collect.PathBuckets, nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("buckets: unexpected status %s", resp.Status)
	}
	var tr collect.TopResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return nil, fmt.Errorf("buckets: %w", err)
	}
	return tr.Buckets, nil
}

// Buckets, Bucket, NewestTime, and LoadSnap satisfy triage.Warehouse
// over the last merged snapshot, so the single-node analyzer triages
// the whole fleet unchanged.
var _ triage.Warehouse = (*Gate)(nil)

func (g *Gate) Buckets() []archive.Bucket {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]archive.Bucket, len(g.buckets))
	copy(out, g.buckets)
	return out
}

func (g *Gate) Bucket(sigPrefix string) (archive.Bucket, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return archive.FindBucket(g.buckets, sigPrefix)
}

func (g *Gate) NewestTime() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.newest
}

// LoadSnap fetches a blob from its ring-home shard, falling back to a
// scan of the others: after an agent failover the blob may be
// resident off-home, and the gate must still find it.
func (g *Gate) LoadSnap(sum string) (*snap.Snap, error) {
	home, err := g.ring.Place(sum)
	if err != nil {
		return nil, err
	}
	g.met.blobFetches.Inc()
	var lastErr error
	for i := 0; i < len(g.shards); i++ {
		s := (home + i) % len(g.shards)
		if i > 0 {
			g.met.blobScans.Inc()
		}
		sn, err := g.fetchSnap(g.shards[s], sum)
		if err == nil {
			return sn, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("gate: blob %s: %w", sum[:12], lastErr)
}

func (g *Gate) fetchSnap(base, sum string) (*snap.Snap, error) {
	resp, err := g.client.Get(base + collect.PathBlobPrefix + sum)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("blob: unexpected status %s", resp.Status)
	}
	return snap.LoadAuto(resp.Body)
}

// handleHealth probes every shard and aggregates: "ok" only when the
// whole fleet is serving.
func (g *Gate) handleHealth(w http.ResponseWriter, r *http.Request) {
	states := make([]ShardHealth, len(g.shards))
	var wg sync.WaitGroup
	for i, base := range g.shards {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			states[i] = ShardHealth{URL: base, State: g.probeShard(r.Context(), base)}
		}(i, base)
	}
	wg.Wait()
	state, code := collect.HealthOK, http.StatusOK
	for _, s := range states {
		if s.State != collect.HealthOK {
			state, code = HealthDegraded, http.StatusServiceUnavailable
			break
		}
	}
	collect.WriteJSON(w, code, HealthResponse{V: 1, State: state, Shards: states})
}

func (g *Gate) probeShard(ctx context.Context, base string) string {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+collect.PathHealth, nil)
	if err != nil {
		return "down"
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return "down"
	}
	defer resp.Body.Close()
	var hr collect.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil || hr.State == "" {
		return "down"
	}
	return hr.State
}
