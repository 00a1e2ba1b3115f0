// Package gate is the fan-out query tier of the sharded snap
// warehouse: a thin HTTP daemon that presents N tbcollectd shards as
// one. Every triage query asks every shard for its bucket list, folds
// the lists with shard.MergeBuckets, and serves the result through the
// same analyzer a single daemon uses — so an operator (or tbstore)
// pointed at a gate sees exactly the views a single node holding the
// whole fleet would serve. The gate holds no warehouse state of its
// own: shards own the journals and blobs. What the gate keeps is
// derived and revalidated on every query: per shard, the last bucket
// list it decoded and the ETag the shard named it with; the merged
// snapshot and the tags it was merged from; and the triage caches
// (cluster exemplar views, pairwise distances).
//
// Asking is a conditional GET (collect.PathBuckets): the gate sends
// the tag it holds, a shard whose journal has not moved answers 304
// without a body, and a round in which every shard's tag is the one
// the merged snapshot was built from skips the merge too. A query is
// still never answered without hearing from every shard after it
// arrived, so a write acknowledged before a query is in its answer.
// There is no expiry and no second fetch path: the first request is
// the same code holding no tag.
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
	"io"
	"net"
	"net/http"
	"slices"
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
}

// Gate fans triage queries out across the shard fleet and merges
// deterministically. Safe for concurrent use.
type Gate struct {
	shards []string
	ring   *shard.Ring
	client *http.Client

	hs *http.Server

	mu     sync.Mutex
	rounds uint64           // fan-out rounds begun
	round  uint64           // the round that installed what follows
	views  []shardView      // per shard: the last answer that can be revalidated
	merged []archive.Bucket // the snapshot queries read
	from   []string         // the shards' tags merged was built from

	reg *telemetry.Registry
	rec *telemetry.Recorder
	met metrics
}

// shardView is one shard's answer to PathBuckets: the decoded list and
// the ETag that names it ("": the shard sent none, so the list cannot
// be revalidated and is not kept). Once built a view is only read —
// rounds share it, and shard.MergeBuckets copies what it folds.
type shardView struct {
	tag     string
	buckets []archive.Bucket
}

type metrics struct {
	fanouts     *telemetry.Counter
	fanoutFails *telemetry.Counter
	notModified *telemetry.Counter
	mergeReuse  *telemetry.Counter
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
	reg := telemetry.New()
	bases := make([]string, len(shards))
	for i, s := range shards {
		bases[i] = strings.TrimRight(s, "/")
	}
	g := &Gate{
		shards: bases,
		ring:   ring,
		client: opts.Client,
		views:  make([]shardView, len(bases)),
		reg:    reg,
		rec:    reg.Recorder(256),
	}
	g.met = metrics{
		fanouts:     reg.Counter("gate_fanouts_total", "shard fan-out rounds executed"),
		fanoutFails: reg.Counter("gate_fanout_errors_total", "fan-out rounds failed by an unreachable shard"),
		notModified: reg.Counter("gate_shard_not_modified_total", "shard bucket lists revalidated by a 304 instead of transferred"),
		mergeReuse:  reg.Counter("gate_merge_reuse_total", "fan-out rounds that kept the merged snapshot (every shard's tag unchanged)"),
		mergeNanos:  reg.Histogram("gate_merge_nanos", "per-round shard index merge latency (ns)", telemetry.DurationBuckets()),
	}

	// The daemon's own triage table over the merged snapshot, with a
	// fan-out refresh before every query.
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+collect.PathHealth, g.handleHealth)
	collect.MountTriage(mux, g, triage.New(g, opts.Maps, triage.Config{}, reg), reg,
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

// maxBucketsBody caps one shard's PathBuckets answer: what a broken
// shard can make the gate buffer. A shard holding 480 blobs answers in
// about 166 KB, so the cap leaves room for a few hundred times that.
const maxBucketsBody = 64 << 20

// refresh asks every shard for its bucket list and makes the merged
// snapshot current. Any shard that cannot be heard from, or whose
// answer cannot be trusted, fails the whole refresh and leaves every
// cached view as it was — a partial merge would serve wrong answers,
// not stale ones. Concurrent refreshes are not coalesced: each request
// pays for its own round, begun after it arrived.
func (g *Gate) refresh(ctx context.Context) error {
	g.met.fanouts.Inc()
	g.mu.Lock()
	g.rounds++
	round := g.rounds
	held := append([]shardView(nil), g.views...)
	g.mu.Unlock()

	views := make([]shardView, len(g.shards))
	errs := make([]error, len(g.shards))
	var wg sync.WaitGroup
	for i, base := range g.shards {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			views[i], errs[i] = g.fetchBuckets(ctx, base, held[i])
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

	tags := make([]string, len(views))
	lists := make([][]archive.Bucket, len(views))
	for i, v := range views {
		tags[i], lists[i] = v.tag, v.buckets
	}
	// The merged snapshot stands when every shard named its list with
	// the tag the snapshot was built from. The merge itself runs outside
	// the lock: queries reading the current snapshot do not wait for it.
	g.mu.Lock()
	merged, reuse := g.merged, slices.Equal(tags, g.from) && !slices.Contains(tags, "")
	g.mu.Unlock()
	if reuse {
		g.met.mergeReuse.Inc()
	} else {
		t0 := time.Now()
		merged = shard.MergeBuckets(lists...)
		g.met.mergeNanos.Observe(uint64(time.Since(t0)))
	}

	g.mu.Lock()
	defer g.mu.Unlock()
	if round < g.round {
		// A round begun after this one has already installed. It too
		// began after this request arrived, so its snapshot answers this
		// request; installing ours over it could hand a later request an
		// older list than an earlier one saw.
		return nil
	}
	g.round, g.merged, g.from = round, merged, tags
	for i, v := range views {
		if old := g.views[i].tag; old != "" && v.tag != "" && collect.TagEpoch(old) != collect.TagEpoch(v.tag) {
			g.rec.Record(0, "gate-shard-epoch", fmt.Sprintf("shard %d (%s): %s -> %s", i, g.shards[i], old, v.tag))
		}
		if v.tag == "" {
			v = shardView{} // nothing to revalidate it with: merged above, not kept
		}
		g.views[i] = v
	}
	return nil
}

// fetchBuckets asks one shard for its bucket list, conditionally on
// the view the gate holds (held.tag "": unconditionally). A 304 for
// the tag sent returns held itself; a 200 returns the decoded body
// under the ETag it came with. Everything else is an error: the body
// of a shard is untrusted input, bounded and strictly decoded.
func (g *Gate) fetchBuckets(ctx context.Context, base string, held shardView) (shardView, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+collect.PathBuckets, nil)
	if err != nil {
		return shardView{}, err
	}
	if held.tag != "" {
		req.Header.Set("If-None-Match", held.tag)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return shardView{}, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		if held.tag == "" || resp.Header.Get("ETag") != held.tag {
			return shardView{}, fmt.Errorf("buckets: 304 for tag %q, asked about %q", resp.Header.Get("ETag"), held.tag)
		}
		g.met.notModified.Inc()
		return held, nil
	case http.StatusOK:
	default:
		return shardView{}, fmt.Errorf("buckets: unexpected status %s", resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBucketsBody+1))
	if err != nil {
		return shardView{}, fmt.Errorf("buckets: %w", err)
	}
	if len(body) > maxBucketsBody {
		return shardView{}, fmt.Errorf("buckets: body exceeds %d bytes", maxBucketsBody)
	}
	var tr collect.TopResponse
	// Unmarshal, unlike a Decoder, refuses anything after the value.
	if err := json.Unmarshal(body, &tr); err != nil {
		return shardView{}, fmt.Errorf("buckets: %w", err)
	}
	if tr.V != 1 {
		return shardView{}, fmt.Errorf("buckets: unsupported response version %d", tr.V)
	}
	tag := resp.Header.Get("ETag")
	if tag != "" && !strongTag(tag) {
		return shardView{}, fmt.Errorf("buckets: ETag %q is not a strong entity tag", tag)
	}
	return shardView{tag: tag, buckets: tr.Buckets}, nil
}

// strongTag reports whether tag is a quoted strong entity tag of
// visible ASCII — the only shape a shard sends, and one that is
// always legal to send back in If-None-Match. A tag kept without this
// check could make every later request to its shard unsendable.
func strongTag(tag string) bool {
	if len(tag) < 2 || tag[0] != '"' || tag[len(tag)-1] != '"' {
		return false
	}
	for _, c := range []byte(tag[1 : len(tag)-1]) {
		if c <= ' ' || c >= 0x7f || c == '"' {
			return false
		}
	}
	return true
}

// Buckets and LoadSnap satisfy triage.Warehouse over the merged
// snapshot, so the single-node analyzer triages the whole fleet
// unchanged. The snapshot outlives the round that built it, so callers
// get their own top-level slice to reorder; the buckets' inner slices
// are shared and only read.
var _ triage.Warehouse = (*Gate)(nil)

func (g *Gate) Buckets() []archive.Bucket {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]archive.Bucket, len(g.merged))
	copy(out, g.merged)
	return out
}

// LoadSnap fetches a blob from its ring-home shard, falling back to a
// scan of the others: after an agent failover the blob may be
// resident off-home, and the gate must still find it. A shard's answer
// counts only when its bytes are the snap sum addresses; any other
// answer is an error and the scan goes on.
func (g *Gate) LoadSnap(sum string) (*snap.Snap, error) {
	home, err := g.ring.Place(sum)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for i := 0; i < len(g.shards); i++ {
		s := (home + i) % len(g.shards)
		sn, err := g.fetchSnap(g.shards[s], sum)
		if err == nil {
			return sn, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("gate: blob %.12s: %w", sum, lastErr)
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
	sn, raw, err := snap.LoadCanonical(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("blob: %w", err)
	}
	if got := archive.SumCanonical(raw); got != sum {
		return nil, fmt.Errorf("blob: shard answered %.12s with content addressed %.12s", sum, got)
	}
	return sn, nil
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

// maxHealthBody caps one shard's /healthz answer: a HealthResponse is
// a state and six numbers, well under a few hundred bytes.
const maxHealthBody = 4 << 10

// probeShard reports the state a shard's /healthz names, or "down"
// when there is no such answer: unreachable, past the cap, or not a
// HealthResponse.
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
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxHealthBody+1))
	var hr collect.HealthResponse
	if err != nil || len(body) > maxHealthBody || json.Unmarshal(body, &hr) != nil || hr.State == "" {
		return "down"
	}
	return hr.State
}
