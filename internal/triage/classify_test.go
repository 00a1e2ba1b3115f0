package triage

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"traceback/internal/archive"
	"traceback/internal/snap"
	"traceback/internal/telemetry"
)

const W = archive.WindowWidth

// mkBucket builds a synthetic bucket whose histogram holds count[i]
// occurrences in window i (first/last seen derived accordingly).
func mkBucket(sig string, counts []uint64) archive.Bucket {
	b := archive.Bucket{Sig: sig, Title: "bucket " + sig}
	first, last := uint64(0), uint64(0)
	seenFirst := false
	for i, c := range counts {
		if c == 0 {
			continue
		}
		start := uint64(i) * W
		b.Windows = append(b.Windows, archive.RateWindow{Start: start, Count: c})
		b.Count += c
		if !seenFirst {
			first = start
			seenFirst = true
		}
		last = start
	}
	b.FirstSeen, b.LastSeen = first, last
	return b
}

func classOf(t *testing.T, rep *Report, sig string) Class {
	t.Helper()
	for _, a := range rep.Assessments {
		if a.Sig == sig {
			return a.Class
		}
	}
	t.Fatalf("signature %s missing from report", sig)
	return ""
}

// TestClassifySyntheticRamp: the four verdicts on hand-built
// histograms over a 10-window horizon (now = window 9).
func TestClassifySyntheticRamp(t *testing.T) {
	buckets := []archive.Bucket{
		// Flat background noise: 1 per window throughout.
		mkBucket("steady00", []uint64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}),
		// Ramp: quiet background then 12 in the newest window.
		mkBucket("spiker00", []uint64{1, 1, 1, 1, 1, 1, 1, 1, 1, 12}),
		// First ever seen in the newest window.
		mkBucket("newsig00", []uint64{0, 0, 0, 0, 0, 0, 0, 0, 0, 3}),
		// Went dark seven windows ago.
		mkBucket("quiet000", []uint64{5, 5, 1, 0, 0, 0, 0, 0, 0, 0}),
	}
	rep := Classify(buckets, 9*W+W/2, Config{})
	if got := classOf(t, rep, "steady00"); got != ClassSteady {
		t.Errorf("steady00 = %s, want steady", got)
	}
	if got := classOf(t, rep, "spiker00"); got != ClassSpiking {
		t.Errorf("spiker00 = %s, want spiking", got)
	}
	if got := classOf(t, rep, "newsig00"); got != ClassNew {
		t.Errorf("newsig00 = %s, want new", got)
	}
	if got := classOf(t, rep, "quiet000"); got != ClassQuiet {
		t.Errorf("quiet000 = %s, want quiet", got)
	}

	// Urgency ordering: new, spiking, steady, quiet — deterministic.
	wantOrder := []string{"newsig00", "spiker00", "steady00", "quiet000"}
	for i, want := range wantOrder {
		if rep.Assessments[i].Sig != want {
			t.Fatalf("assessment[%d] = %s, want %s", i, rep.Assessments[i].Sig, want)
		}
	}
	if got := rep.Flagged(); len(got) != 2 {
		t.Errorf("flagged = %d assessments, want 2 (new + spiking)", len(got))
	}
}

// TestClassifyYoungSteadyNotSpiking: a bucket first seen 4 windows
// ago at a flat rate is neither new (horizon 2) nor spiking — the
// baseline divisor shrinks to the bucket's actual age.
func TestClassifyYoungSteadyNotSpiking(t *testing.T) {
	b := mkBucket("young000", []uint64{0, 0, 0, 0, 0, 0, 2, 2, 2, 2})
	rep := Classify([]archive.Bucket{b}, 9*W, Config{})
	if got := classOf(t, rep, "young000"); got != ClassSteady {
		t.Errorf("young steady bucket = %s, want steady", got)
	}
}

// TestClassifySingleCrashNotSpike: minRecent keeps a lone recent
// crash of an old signature from being called a spike.
func TestClassifySingleCrashNotSpike(t *testing.T) {
	b := mkBucket("lone0000", []uint64{3, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	rep := Classify([]archive.Bucket{b}, 9*W, Config{})
	if got := classOf(t, rep, "lone0000"); got != ClassSteady {
		t.Errorf("single recent crash = %s, want steady", got)
	}
}

// TestClassifyPure: Classify is a pure function — identical inputs
// give byte-identical JSON, and input order does not matter.
func TestClassifyPure(t *testing.T) {
	buckets := []archive.Bucket{
		mkBucket("aa", []uint64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}),
		mkBucket("bb", []uint64{0, 0, 0, 0, 0, 0, 0, 0, 0, 5}),
		mkBucket("cc", []uint64{2, 2, 2, 2, 2, 2, 2, 2, 2, 2}),
	}
	reversed := []archive.Bucket{buckets[2], buckets[1], buckets[0]}
	j1, err := json.Marshal(Classify(buckets, 9*W, Config{}))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(Classify(reversed, 9*W, Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Errorf("classification depends on input order:\n%s\nvs\n%s", j1, j2)
	}
}

// TestRegressionsMetrics: Regressions over a real archive feeds the
// triage_* counters (scan count and flagged total).
func TestRegressionsMetrics(t *testing.T) {
	arch, err := archive.Open(filepath.Join(t.TempDir(), "wh"))
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	// One steady signature across 10 windows, one newest-window-only.
	for win := uint64(0); win < 10; win++ {
		s := &snap.Snap{Host: "h", Process: "app", Reason: "exception SIGSEGV",
			Time: win*W + 5, PID: 1, RuntimeID: win}
		if _, err := arch.Ingest(s, archive.Signature{ID: "aaaa000000000000", Title: "steady", Weak: true}); err != nil {
			t.Fatal(err)
		}
	}
	s := &snap.Snap{Host: "h", Process: "app", Reason: "exception SIGSEGV",
		Time: 9*W + 50, PID: 2}
	if _, err := arch.Ingest(s, archive.Signature{ID: "bbbb000000000000", Title: "fresh", Weak: true}); err != nil {
		t.Fatal(err)
	}

	an := New(arch, nil, Config{}, telemetry.New())
	rep := an.Regressions()
	if got := classOf(t, rep, "bbbb000000000000"); got != ClassNew {
		t.Errorf("newest-window signature = %s, want new", got)
	}
	if got := classOf(t, rep, "aaaa000000000000"); got.Flagged() {
		t.Errorf("steady signature flagged %s", got)
	}
	if an.met.scans.Load() != 1 {
		t.Errorf("triage_scans_total = %d, want 1", an.met.scans.Load())
	}
	if an.met.flagged.Load() != 1 {
		t.Errorf("triage_flagged_total = %d, want 1", an.met.flagged.Load())
	}
}

// TestRatesReport: the per-signature window view agrees with the
// classifier and resolves prefixes.
func TestRatesReport(t *testing.T) {
	arch, err := archive.Open(filepath.Join(t.TempDir(), "wh"))
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	for win := uint64(0); win < 4; win++ {
		s := &snap.Snap{Host: "h", Process: "app", Reason: "exception SIGSEGV",
			Time: win * W, PID: int(win)}
		if _, err := arch.Ingest(s, archive.Signature{ID: "feedface00000000", Title: "t", Weak: true}); err != nil {
			t.Fatal(err)
		}
	}
	an := New(arch, nil, Config{}, nil)
	rr, err := an.Rates("feed")
	if err != nil {
		t.Fatal(err)
	}
	if rr.Assessment.Sig != "feedface00000000" || len(rr.Windows) != 4 {
		t.Errorf("rates = %+v, want 4 windows for feedface", rr)
	}
	if _, err := an.Rates("nope"); err == nil {
		t.Error("unknown signature prefix did not error")
	}
}
