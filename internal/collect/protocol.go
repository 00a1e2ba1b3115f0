// Package collect is the fleet collection plane: the network layer
// that moves crash snaps from instrumented machines into the snap
// warehouse (internal/archive). The paper's deployment model is a
// support organization triaging faults across a fleet; after the
// warehouse PR, snaps could only reach it through a local CLI. This
// package adds the missing wire: tbcollectd (Server) fronts an
// archive with a small versioned HTTP API, and tbagent (Agent)
// watches a spool directory on each machine and uploads with dedup
// precheck, jittered exponential backoff, and a durable commit rule —
// a snap leaves the spool only after a 2xx whose hash echo matches.
//
// The protocol is built for lossy fleets: every upload is idempotent
// (content-addressed; the warehouse journals one entry per unique
// snap no matter how many times it arrives), so an agent that loses a
// response, hits a 5xx storm, or watches the daemon die mid-upload
// simply retries. The dedup precheck (HEAD /v1/blob/{sum}) lets
// agents skip the body entirely for crashes the warehouse already
// holds — duplicate faults are the common case at fleet scale, so
// the steady-state cost of a known crash is one round trip.
package collect

import "traceback/internal/archive"

// APIVersion prefixes every collection route; a breaking protocol
// change bumps it and daemons serve both during transition.
const APIVersion = "v1"

// Wire routes (server side; the agent builds them via joinURL).
const (
	// PathBlobPrefix + <sha256 hex> answers the dedup precheck:
	// HEAD → 200 when the blob is resident, 404 when not.
	PathBlobPrefix = "/" + APIVersion + "/blob/"
	// PathSnap accepts POST uploads: body is one snap's canonical JSON
	// (the bytes Snap.Save writes), plain or as one gzip member at any
	// level; any other encoding is refused 422, and every upload that
	// arrives while the daemon drains is refused 503 with Retry-After.
	// Response is an UploadResponse.
	PathSnap = "/" + APIVersion + "/snap"
	// PathBuckets and PathTop are the fleet triage queries, JSON
	// mirrors of `tbstore ls` / `tbstore top`.
	//
	// A daemon answers PathBuckets with a strong ETag naming the state
	// of its index, and a request whose If-None-Match equals the
	// current tag with 304 and no body. The tag is opaque and matched
	// whole, byte for byte: no weak comparison, no tag lists, no "*".
	// A request without the header gets 200 and the full list, always.
	// The tag changes with every journal record folded into the index
	// (an ingest, a GC removal) and with every restart of the daemon's
	// warehouse (see archive.Version); it does not change on reads or
	// on a duplicate upload that journals nothing. A gate's PathBuckets
	// carries no tag.
	PathBuckets = "/" + APIVersion + "/buckets"
	PathTop     = "/" + APIVersion + "/top"
	// PathRegressions, PathRates, and PathClusters are the fleet-health
	// views (internal/triage): the regression classification of every
	// bucket, one signature's crash-rate windows (?sig=<prefix>), and
	// the similarity clustering of near-duplicate signatures.
	PathRegressions = "/" + APIVersion + "/regressions"
	PathRates       = "/" + APIVersion + "/rates"
	PathClusters    = "/" + APIVersion + "/clusters"
	// PathMetrics and PathHealth are unversioned operational routes.
	PathMetrics = "/metrics"
	PathHealth  = "/healthz"
)

// HeaderSum carries the agent's claimed content address on an upload.
// The daemon hashes the body's (inflated) bytes and rejects a mismatch
// (422), so a snap corrupted between spool and wire can never be
// archived under the wrong address.
const HeaderSum = "X-Traceback-Sum"

// UploadResponse is the daemon's answer to POST /v1/snap. Sum is the
// hash echo: the content address the daemon computed and committed.
// The agent deletes its spool copy only when Sum matches what it
// claimed — that echo is the durable handoff point of the protocol.
type UploadResponse struct {
	V     int    `json:"v"`
	Sum   string `json:"sum"`
	Sig   string `json:"sig"`
	Title string `json:"title"`
	Weak  bool   `json:"weak,omitempty"`
	// Dup reports an idempotent replay: the warehouse already held
	// this content and journaled nothing new.
	Dup       bool `json:"dup,omitempty"`
	NewBucket bool `json:"newBucket,omitempty"`
}

// TopResponse is the daemon's answer to GET /v1/top and /v1/buckets.
type TopResponse struct {
	V       int              `json:"v"`
	Buckets []archive.Bucket `json:"buckets"`
}

// Health states reported by GET /healthz.
const (
	// HealthOK: serving normally (HTTP 200).
	HealthOK = "ok"
	// HealthDraining: the daemon is shutting down gracefully —
	// in-flight ingests run to completion but new work should go
	// elsewhere (HTTP 503, here and on every new upload).
	HealthDraining = "draining"
)

// HealthResponse is the daemon's answer to GET /healthz. State
// distinguishes a live daemon from one mid-drain; Inflight counts
// ingests currently holding a semaphore slot (drain watchers poll it
// toward zero). The warehouse totals give fleet dashboards a one-call
// growth view without walking /v1/buckets.
type HealthResponse struct {
	V        int    `json:"v"`
	State    string `json:"state"`
	Inflight int    `json:"inflight"`
	// UptimeSec is whole seconds since the daemon was built.
	UptimeSec int64 `json:"uptimeSec"`
	// Buckets / Blobs / StoredBytes are the warehouse totals: distinct
	// crash signatures, resident content-addressed snaps, and their
	// on-disk bytes.
	Buckets     int   `json:"buckets"`
	Blobs       int   `json:"blobs"`
	StoredBytes int64 `json:"storedBytes"`
}
