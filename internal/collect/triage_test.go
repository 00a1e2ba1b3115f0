package collect

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"traceback/internal/archive"
	"traceback/internal/triage"
)

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestHealthzTotals: /healthz carries uptime and the warehouse totals
// alongside the drain state.
func TestHealthzTotals(t *testing.T) {
	srv, ts, _ := newTestDaemon(t, ServerOptions{})
	for i := 0; i < 3; i++ {
		if code, _ := upload(t, ts.URL, mkSnap("h", i)); code != http.StatusCreated {
			t.Fatalf("upload %d: status %d", i, code)
		}
	}
	var hr HealthResponse
	if code := getJSON(t, ts.URL+PathHealth, &hr); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if hr.State != HealthOK {
		t.Errorf("state = %q, want ok", hr.State)
	}
	if hr.Blobs != 3 || hr.Buckets != 3 {
		t.Errorf("totals = %d buckets / %d blobs, want 3 / 3", hr.Buckets, hr.Blobs)
	}
	if hr.StoredBytes <= 0 {
		t.Errorf("storedBytes = %d, want > 0", hr.StoredBytes)
	}
	if hr.UptimeSec < 0 {
		t.Errorf("uptimeSec = %d, want >= 0", hr.UptimeSec)
	}
	_ = srv
}

// TestRegressionsEndpointTwoPhase: the acceptance property on the
// wire path — a signature uploaded only in the newest rate window is
// flagged by GET /v1/regressions while a signature present in every
// window stays steady.
func TestRegressionsEndpointTwoPhase(t *testing.T) {
	_, ts, _ := newTestDaemon(t, ServerOptions{})
	W := archive.WindowWidth

	// Steady traffic: one signature, one distinct snap per window 0..9
	// (Time participates in the content address but not the weak
	// signature, so each upload journals a fresh occurrence of the
	// same bucket).
	steady := mkSnap("h", 1)
	steadySig := archive.SignSnap(steady, nil).ID
	for win := uint64(0); win < 10; win++ {
		s := mkSnap("h", 1)
		s.Time = win*W + 10
		if code, _ := upload(t, ts.URL, s); code != http.StatusCreated {
			t.Fatalf("steady upload at window %d: status %d", win, code)
		}
	}
	// The regression: a different signature, newest window only.
	inj := mkSnap("h", 2)
	inj.Time = 9*W + 20
	injSig := archive.SignSnap(inj, nil).ID
	if code, _ := upload(t, ts.URL, inj); code != http.StatusCreated {
		t.Fatalf("injected upload: status %d", code)
	}

	var rep triage.Report
	if code := getJSON(t, ts.URL+PathRegressions, &rep); code != http.StatusOK {
		t.Fatalf("regressions status %d", code)
	}
	classes := map[string]triage.Class{}
	for _, a := range rep.Assessments {
		classes[a.Sig] = a.Class
	}
	if got := classes[injSig]; got != triage.ClassNew {
		t.Errorf("injected signature %s = %q, want new", injSig, got)
	}
	if got := classes[steadySig]; got.Flagged() {
		t.Errorf("steady signature %s flagged %q", steadySig, got)
	}

	// The rates view resolves a prefix and returns the full histogram.
	var rr triage.RateReport
	if code := getJSON(t, ts.URL+PathRates+"?sig="+steadySig[:6], &rr); code != http.StatusOK {
		t.Fatalf("rates status %d", code)
	}
	if len(rr.Windows) != 10 || rr.Assessment.Sig != steadySig {
		t.Errorf("rates = %d windows for %s, want 10 for %s", len(rr.Windows), rr.Assessment.Sig, steadySig)
	}
	if code := getJSON(t, ts.URL+PathRates+"?sig=ffffffffffffffff", &rr); code != http.StatusNotFound {
		t.Errorf("unknown sig: status %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+PathRates, &rr); code != http.StatusBadRequest {
		t.Errorf("missing sig param: status %d, want 400", code)
	}

	// Clusters: weak buckets (no maps on this daemon) come back as
	// unclustered singletons rather than disappearing.
	var cr triage.ClusterReport
	if code := getJSON(t, ts.URL+PathClusters, &cr); code != http.StatusOK {
		t.Fatalf("clusters status %d", code)
	}
	if len(cr.Clusters) != 2 {
		t.Fatalf("clusters = %d, want 2 singletons", len(cr.Clusters))
	}
	for _, c := range cr.Clusters {
		if !c.Unclustered {
			t.Errorf("weak bucket %s not marked unclustered", c.Lead)
		}
	}
}

// TestBucketsConditionalGet: the contract on PathBuckets. Without
// If-None-Match the answer is 200 with the full list and its tag,
// every time; with the current tag it is 304 and no body; the tag
// moves on an upload that journals and stays put on one that does not;
// and only the whole, exact tag matches.
func TestBucketsConditionalGet(t *testing.T) {
	srv, ts, _ := newTestDaemon(t, ServerOptions{})
	notModified := srv.Metrics().Counter("coll_buckets_not_modified_total", "")
	if code, _ := upload(t, ts.URL, mkSnap("h", 1)); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	ask := func(ifNoneMatch string) (int, string, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+PathBuckets, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ifNoneMatch != "" {
			req.Header.Set("If-None-Match", ifNoneMatch)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("ETag"), body
	}

	code, tag, full := ask("")
	if code != http.StatusOK || len(tag) < 3 || tag[0] != '"' || tag[len(tag)-1] != '"' {
		t.Fatalf("unconditional GET: status %d, ETag %q; want 200 and a quoted strong tag", code, tag)
	}
	if code, again, body := ask(""); code != http.StatusOK || again != tag || string(body) != string(full) {
		t.Errorf("second unconditional GET: status %d, ETag %q, %d bytes; want the first answer again", code, again, len(body))
	}
	if notModified.Load() != 0 {
		t.Errorf("unconditional GETs counted %d not-modified answer(s)", notModified.Load())
	}

	code, echoed, body := ask(tag)
	if code != http.StatusNotModified || echoed != tag || len(body) != 0 {
		t.Errorf("GET with the current tag: status %d, ETag %q, %d body bytes; want 304, the tag, none", code, echoed, len(body))
	}
	if got := notModified.Load(); got != 1 {
		t.Errorf("coll_buckets_not_modified_total = %d after one 304, want 1", got)
	}
	for _, near := range []string{"W/" + tag, tag + ", " + tag, "*", tag[1 : len(tag)-1], `"0-0"`} {
		if code, _, body := ask(near); code != http.StatusOK || string(body) != string(full) {
			t.Errorf("If-None-Match %s: status %d; want 200 and the full list (exact match only)", near, code)
		}
	}

	// A replayed upload journals nothing: the tag stands.
	if code, ur := upload(t, ts.URL, mkSnap("h", 1)); code != http.StatusOK || !ur.Dup {
		t.Fatalf("replayed upload: status %d, dup %v", code, ur.Dup)
	}
	if code, _, _ := ask(tag); code != http.StatusNotModified {
		t.Errorf("after a dup upload the held tag answers %d, want 304", code)
	}
	// A fresh one does: the old tag now buys the new list.
	if code, _ := upload(t, ts.URL, mkSnap("h", 2)); code != http.StatusCreated {
		t.Fatalf("second upload: status %d", code)
	}
	code, moved, body := ask(tag)
	if code != http.StatusOK || moved == tag || len(body) <= len(full) {
		t.Errorf("after an ingest the held tag answers %d with ETag %q and %d bytes; want 200, a new tag, a longer list", code, moved, len(body))
	}
}
