package collect

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"traceback/internal/archive"
	"traceback/internal/telemetry"
	"traceback/internal/triage"
)

// query computes one triage answer from the warehouse.
type query func() (any, error)

// triageRoute is one fleet triage query. bind validates the query
// string — its error is a 400 — and returns the query to run; a query
// that fails answers failStatus.
type triageRoute struct {
	path       string
	bind       func(url.Values) (query, error)
	failStatus int
}

// versioned is a warehouse whose bucket list carries a validator:
// *archive.Archive. The gate's merged snapshot has none — its clients
// poll unconditionally — so there PathBuckets sets no ETag.
type versioned interface {
	Version() archive.Version
	Snapshot() ([]archive.Bucket, archive.Version)
}

// etagOf renders a warehouse version as PathBuckets' entity tag:
// `"<epoch>-<records>"`.
func etagOf(v archive.Version) string { return `"` + v.String() + `"` }

// TagEpoch is the part of a PathBuckets entity tag that survives
// ingests and changes when the daemon's warehouse restarts. Tags are
// matched whole; the epoch is for telling an operator that a shard
// restarted, nothing else.
func TagEpoch(tag string) string {
	if i := strings.LastIndexByte(tag, '-'); i >= 0 {
		return tag[:i]
	}
	return tag
}

// MountTriage registers the triage query surface — PathBuckets,
// PathTop, PathRegressions, PathRates, PathClusters — and PathMetrics
// on mux. A single daemon mounts it over its archive; the fan-out
// gate mounts the same table over its merged snapshot, which is what
// makes the two byte-identical on the wire. preflight (nil: none) runs
// after a request's parameters have validated and before its query
// does, and fails the request 502: the gate refreshes its snapshot
// there, so a malformed request never costs a fan-out.
func MountTriage(mux *http.ServeMux, wh triage.Warehouse, an *triage.Analyzer,
	reg *telemetry.Registry, preflight func(*http.Request) error) {
	ready := func(w http.ResponseWriter, r *http.Request) bool {
		if preflight == nil {
			return true
		}
		if err := preflight(r); err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return false
		}
		return true
	}

	// PathBuckets is a conditional GET over a versioned warehouse (the
	// contract is on PathBuckets). The version is compared before any
	// bucket is cloned, sorted or encoded, so a poller that holds the
	// current list costs the daemon one lock hold and no body; the tag
	// on a 200 is the one Snapshot read under the same lock as the list.
	vw, _ := wh.(versioned)
	var notModified *telemetry.Counter
	if vw != nil {
		notModified = reg.Counter("coll_buckets_not_modified_total", "conditional /v1/buckets requests answered 304 Not Modified")
	}
	mux.HandleFunc("GET "+PathBuckets, func(w http.ResponseWriter, r *http.Request) {
		if !ready(w, r) {
			return
		}
		if vw == nil {
			WriteJSON(w, http.StatusOK, TopResponse{V: 1, Buckets: wh.Buckets()})
			return
		}
		if held := r.Header.Get("If-None-Match"); held != "" && held == etagOf(vw.Version()) {
			notModified.Inc()
			w.Header().Set("ETag", held)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		list, v := vw.Snapshot()
		w.Header().Set("ETag", etagOf(v))
		WriteJSON(w, http.StatusOK, TopResponse{V: 1, Buckets: list})
	})

	routes := []triageRoute{
		// The first n buckets in triage order (count desc); n=0 is all.
		{path: PathTop, bind: func(q url.Values) (query, error) {
			n := 10
			if s := q.Get("n"); s != "" {
				v, err := strconv.Atoi(s)
				if err != nil || v < 0 {
					return nil, errors.New("bad n")
				}
				n = v
			}
			return func() (any, error) {
				buckets := wh.Buckets()
				if n > 0 && len(buckets) > n {
					buckets = buckets[:n]
				}
				return TopResponse{V: 1, Buckets: buckets}, nil
			}, nil
		}},
		// The regression classification of every bucket — deterministic
		// given the warehouse index, so a fleet queried over the wire
		// triages identically to `tbstore regressions` on the directory.
		{path: PathRegressions, bind: func(url.Values) (query, error) {
			return func() (any, error) { return an.Regressions(), nil }, nil
		}},
		// One signature's crash-rate windows; ?sig=<prefix> resolves
		// like `tbstore show`.
		{path: PathRates, failStatus: http.StatusNotFound, bind: func(q url.Values) (query, error) {
			sig := q.Get("sig")
			if sig == "" {
				return nil, errors.New("missing sig parameter")
			}
			return func() (any, error) { return an.Rates(sig) }, nil
		}},
		{path: PathClusters, failStatus: http.StatusInternalServerError, bind: func(url.Values) (query, error) {
			return func() (any, error) { return an.Clusters() }, nil
		}},
	}
	for _, rt := range routes {
		mux.HandleFunc("GET "+rt.path, func(w http.ResponseWriter, r *http.Request) {
			run, err := rt.bind(r.URL.Query())
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if !ready(w, r) {
				return
			}
			v, err := run()
			if err != nil {
				http.Error(w, err.Error(), rt.failStatus)
				return
			}
			WriteJSON(w, http.StatusOK, v)
		})
	}

	// The shared registry: Prometheus text by default, JSON (with the
	// flight-recorder dump) for ?format=json.
	mux.HandleFunc("GET "+PathMetrics, func(w http.ResponseWriter, r *http.Request) {
		write := reg.WritePrometheus
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if r.URL.Query().Get("format") == "json" {
			write = reg.WriteJSON
			w.Header().Set("Content-Type", "application/json")
		}
		if err := write(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// WriteJSON answers with v as indented JSON — the one encoding every
// JSON route of the daemon and the gate uses.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
