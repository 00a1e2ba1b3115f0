package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"traceback/internal/archive"
	"traceback/internal/collect"
	"traceback/internal/loopback"
	"traceback/internal/recon"
	"traceback/internal/scenario"
	"traceback/internal/snap"
)

// buildFleet writes the deterministic example snaps + mapfiles into a
// temp dir (the same layout tools/gen commits under snaps/).
func buildFleet(t *testing.T) (snapDir, mapsDir string) {
	t.Helper()
	builts, err := scenario.All()
	if err != nil {
		t.Fatal(err)
	}
	snapDir = t.TempDir()
	for _, b := range builts {
		if _, err := b.Write(snapDir); err != nil {
			t.Fatal(err)
		}
	}
	return snapDir, filepath.Join(snapDir, "maps")
}

func TestIngestTopShowLifecycle(t *testing.T) {
	snapDir, mapsDir := buildFleet(t)
	store := filepath.Join(t.TempDir(), "wh")

	var out1, err1 bytes.Buffer
	if code := run([]string{"-store", store, "ingest", "-maps", mapsDir, "-jobs", "4", snapDir}, &out1, &err1); code != 0 {
		t.Fatalf("first ingest exited %d: %s", code, err1.String())
	}
	if !strings.Contains(out1.String(), "0 deduplicated") {
		t.Errorf("first ingest reported dups:\n%s", out1.String())
	}
	if strings.Contains(out1.String(), "(weak)") {
		t.Errorf("real fleet produced weak signatures:\n%s", out1.String())
	}

	// Second ingest of the same fleet: everything dedupes, zero stored,
	// zero new buckets, bucket counts double.
	var out2, err2 bytes.Buffer
	if code := run([]string{"-store", store, "ingest", "-maps", mapsDir, snapDir}, &out2, &err2); code != 0 {
		t.Fatalf("second ingest exited %d: %s", code, err2.String())
	}
	if !strings.Contains(out2.String(), "0 stored") || !strings.Contains(out2.String(), "0 new bucket(s)") {
		t.Errorf("second ingest stored new blobs:\n%s", out2.String())
	}

	var topOut, topErr bytes.Buffer
	if code := run([]string{"-store", store, "top", "-n", "3"}, &topOut, &topErr); code != 0 {
		t.Fatalf("top exited %d: %s", code, topErr.String())
	}
	if !strings.Contains(topOut.String(), " 1. x2") {
		t.Errorf("top bucket does not show doubled count:\n%s", topOut.String())
	}

	// show: stdout must be byte-identical to tbrecon's rendering of the
	// representative snap (Render + trailing newline, nothing else).
	a, err := archive.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	top := a.Buckets()[0]
	rep, err := a.LoadSnap(top.Rep)
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	maps, _, err := recon.NewMapDir(mapsDir)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := recon.NewPipeline(maps, 0).ReconstructSnap(rep)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	recon.Render(&want, pt, recon.RenderOptions{})
	fmt.Fprintln(&want)

	var showOut, showErr bytes.Buffer
	if code := run([]string{"-store", store, "show", "-maps", mapsDir, top.Sig[:8]}, &showOut, &showErr); code != 0 {
		t.Fatalf("show exited %d: %s", code, showErr.String())
	}
	if !bytes.Equal(showOut.Bytes(), want.Bytes()) {
		t.Errorf("show stdout differs from tbrecon rendering:\n--- show ---\n%s\n--- tbrecon ---\n%s",
			showOut.String(), want.String())
	}
	if !strings.Contains(showErr.String(), "bucket "+top.Sig) {
		t.Errorf("bucket metadata missing from stderr:\n%s", showErr.String())
	}
}

// reopenIndex reopens the warehouse at dir, which must hold only its
// journal and blobs, and returns its canonical index bytes.
func reopenIndex(t *testing.T, dir string) []byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if got := strings.Join(names, " "); got != "blobs journal.jsonl" {
		t.Errorf("%s holds %s, want blobs journal.jsonl", dir, got)
	}
	a, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	idx, err := a.IndexBytes()
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// TestIngestJobsDeterminism: the reopened store's index is
// byte-identical whether the fleet was ingested with 1 worker or 16.
func TestIngestJobsDeterminism(t *testing.T) {
	snapDir, mapsDir := buildFleet(t)
	var indexes [][]byte
	for _, jobs := range []string{"1", "16"} {
		store := filepath.Join(t.TempDir(), "wh")
		var out, errBuf bytes.Buffer
		if code := run([]string{"-store", store, "ingest", "-maps", mapsDir, "-jobs", jobs, snapDir}, &out, &errBuf); code != 0 {
			t.Fatalf("-jobs %s exited %d: %s", jobs, code, errBuf.String())
		}
		indexes = append(indexes, reopenIndex(t, store))
	}
	if !bytes.Equal(indexes[0], indexes[1]) {
		t.Errorf("index differs between -jobs 1 and -jobs 16:\n%s\nvs\n%s", indexes[0], indexes[1])
	}
}

// TestIngestWeakFallback: with no mapfiles the snaps cannot be
// reconstructed, but the warehouse must keep them anyway, bucketed by
// the weak metadata signature.
func TestIngestWeakFallback(t *testing.T) {
	snapDir, _ := buildFleet(t)
	emptyMaps := t.TempDir()
	store := filepath.Join(t.TempDir(), "wh")
	var out, errBuf bytes.Buffer
	if code := run([]string{"-store", store, "ingest", "-maps", emptyMaps, snapDir}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "(weak)") {
		t.Errorf("no weak-signature markers in output:\n%s", out.String())
	}
	a, err := archive.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.NumBlobs() == 0 {
		t.Error("weak-path ingest stored nothing")
	}
	for _, b := range a.Buckets() {
		if !b.Weak {
			t.Errorf("bucket %s not marked weak", b.Sig)
		}
	}
}

func TestGCAndLs(t *testing.T) {
	snapDir, mapsDir := buildFleet(t)
	store := filepath.Join(t.TempDir(), "wh")
	var out, errBuf bytes.Buffer
	if code := run([]string{"-store", store, "ingest", "-maps", mapsDir, snapDir}, &out, &errBuf); code != 0 {
		t.Fatalf("ingest exited %d: %s", code, errBuf.String())
	}

	// Every blob is some bucket's representative here (one blob per
	// bucket), so -keep-reps makes this sweep a no-op by design.
	var repsOut, repsErr bytes.Buffer
	if code := run([]string{"-store", store, "gc", "-max-blobs", "2", "-keep-reps"}, &repsOut, &repsErr); code != 0 {
		t.Fatalf("gc -keep-reps exited %d: %s", code, repsErr.String())
	}
	if !strings.Contains(repsOut.String(), "removed 0 blob(s)") {
		t.Errorf("gc -keep-reps evicted a representative:\n%s", repsOut.String())
	}

	var gcOut, gcErr bytes.Buffer
	if code := run([]string{"-store", store, "gc", "-max-blobs", "2"}, &gcOut, &gcErr); code != 0 {
		t.Fatalf("gc exited %d: %s", code, gcErr.String())
	}
	if !strings.Contains(gcOut.String(), "store holds 2 blob(s)") {
		t.Errorf("gc did not shrink to 2 blobs:\n%s", gcOut.String())
	}

	var lsOut, lsErr bytes.Buffer
	if code := run([]string{"-store", store, "ls", "-v"}, &lsOut, &lsErr); code != 0 {
		t.Fatalf("ls exited %d: %s", code, lsErr.String())
	}
	if !strings.Contains(lsOut.String(), "2 blob(s)") {
		t.Errorf("ls disagrees with gc:\n%s", lsOut.String())
	}
	// Bucket history (counts, hosts) survives eviction and still lists.
	if !strings.Contains(lsOut.String(), "x1") {
		t.Errorf("evicted buckets vanished from ls:\n%s", lsOut.String())
	}
}

func TestIngestSkipsNonSnapEntries(t *testing.T) {
	snapDir, mapsDir := buildFleet(t)
	if err := os.WriteFile(filepath.Join(snapDir, "NOTES.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(t.TempDir(), "wh")
	var out, errBuf bytes.Buffer
	if code := run([]string{"-store", store, "ingest", "-maps", mapsDir, snapDir}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "skipping") || !strings.Contains(errBuf.String(), "NOTES.txt") {
		t.Errorf("no skip warning for NOTES.txt:\n%s", errBuf.String())
	}
	if strings.Contains(out.String(), "skipping") {
		t.Error("skip warning leaked to stdout")
	}
}

func TestUnknownCommand(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-store", t.TempDir(), "frobnicate"}, &out, &errBuf); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errBuf.String(), "unknown command") {
		t.Errorf("no usage hint:\n%s", errBuf.String())
	}
}

// TestMetricsFlagKeepsStdoutClean: every subcommand accepts -metrics,
// writes its telemetry only to the chosen destination, and leaves
// stdout byte-identical to a run without the flag.
func TestMetricsFlagKeepsStdoutClean(t *testing.T) {
	snapDir, mapsDir := buildFleet(t)
	store := filepath.Join(t.TempDir(), "wh")
	var out, errb bytes.Buffer
	if code := run([]string{"-store", store, "ingest", "-maps", mapsDir, snapDir}, &out, &errb); code != 0 {
		t.Fatalf("ingest exited %d: %s", code, errb.String())
	}

	for _, sub := range [][]string{
		{"ls", "-v"},
		{"top", "-n", "3"},
		{"gc", "-max-blobs", "1000"},
	} {
		name := sub[0]
		var plain, plainErr bytes.Buffer
		if code := run(append([]string{"-store", store}, sub...), &plain, &plainErr); code != 0 {
			t.Fatalf("%s exited %d: %s", name, code, plainErr.String())
		}

		mfile := filepath.Join(t.TempDir(), name+".prom")
		var metered, meteredErr bytes.Buffer
		args := append([]string{"-store", store, "-metrics", mfile}, sub...)
		if code := run(args, &metered, &meteredErr); code != 0 {
			t.Fatalf("%s -metrics exited %d: %s", name, code, meteredErr.String())
		}
		if plain.String() != metered.String() {
			t.Errorf("%s: -metrics changed stdout:\n--- without ---\n%s--- with ---\n%s",
				name, plain.String(), metered.String())
		}
		prom, err := os.ReadFile(mfile)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(string(prom), "arch_") {
			t.Errorf("%s: metrics file carries no arch_ telemetry:\n%s", name, prom)
		}
	}

	// show writes bucket metadata to stderr and the trace to stdout;
	// -metrics must leave both streams' stdout bytes untouched.
	var lsOut, lsErr bytes.Buffer
	if code := run([]string{"-store", store, "ls"}, &lsOut, &lsErr); code != 0 {
		t.Fatalf("ls exited %d: %s", code, lsErr.String())
	}
	sig := strings.Fields(lsOut.String())[0]
	var plainShow, e1 bytes.Buffer
	if code := run([]string{"-store", store, "show", "-maps", mapsDir, sig}, &plainShow, &e1); code != 0 {
		t.Fatalf("show exited %d: %s", code, e1.String())
	}
	mfile := filepath.Join(t.TempDir(), "show.json")
	var meteredShow, e2 bytes.Buffer
	if code := run([]string{"-store", store, "-metrics", mfile, "show", "-maps", mapsDir, sig}, &meteredShow, &e2); code != 0 {
		t.Fatalf("show -metrics exited %d: %s", code, e2.String())
	}
	if plainShow.String() != meteredShow.String() {
		t.Error("show: -metrics changed the trace on stdout")
	}
	if doc, err := os.ReadFile(mfile); err != nil || !strings.Contains(string(doc), "arch_") {
		t.Errorf("show: metrics JSON missing arch_ telemetry (err %v)", err)
	}
}

// TestIngestCommittedTreesEqualsDirect: `tbstore ingest` of each
// committed snap tree leaves a store that reopens to the index a direct
// loop of Ingest(s, SignSnap(s, cache)) had before Close — the CLI
// signs the way the daemon does, the weak fallback (the
// torn-module-table regression) included.
func TestIngestCommittedTreesEqualsDirect(t *testing.T) {
	for _, tree := range []string{"../../snaps", "../../snaps/regressions"} {
		mapsDir := filepath.Join(tree, "maps")
		cliStore := filepath.Join(t.TempDir(), "cli")
		var out, errb bytes.Buffer
		if code := run([]string{"-store", cliStore, "ingest", "-maps", mapsDir, "-jobs", "4", tree}, &out, &errb); code != 0 {
			t.Fatalf("%s: ingest exited %d: %s", tree, code, errb.String())
		}

		paths, err := snap.ExpandPaths([]string{tree}, func(string) {})
		if err != nil {
			t.Fatal(err)
		}
		cache, _, err := recon.NewMapDir(mapsDir)
		if err != nil {
			t.Fatal(err)
		}
		directStore := filepath.Join(t.TempDir(), "direct")
		direct, err := archive.Open(directStore)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			s, err := snap.LoadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := direct.Ingest(s, archive.SignSnap(s, cache)); err != nil {
				t.Fatal(err)
			}
		}
		want, err := direct.IndexBytes()
		if err != nil {
			t.Fatal(err)
		}
		if err := direct.Close(); err != nil {
			t.Fatal(err)
		}
		if reopened := reopenIndex(t, directStore); !bytes.Equal(reopened, want) {
			t.Errorf("%s: the direct store reopens to a different index:\n%s\nvs\n%s", tree, reopened, want)
		}
		if got := reopenIndex(t, cliStore); !bytes.Equal(got, want) {
			t.Errorf("%s: tbstore ingest's index differs from the direct SignSnap loop:\n%s\nvs\n%s", tree, got, want)
		}
	}
}

// TestStoreWriteFailure: a listing that cannot be written is a failure
// (exit 1, reason on stderr) for every reading subcommand, and watch
// stops at the first tick it cannot write instead of polling on.
func TestStoreWriteFailure(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("no /dev/full:", err)
	}
	defer full.Close()
	store := filepath.Join(t.TempDir(), "wh")
	mustRun(t, "-store", store, "ingest", "-maps", "../../snaps/maps", "../../snaps")
	a, err := archive.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	sig := a.Buckets()[0].Sig
	a.Close()

	node, err := loopback.StartNode(filepath.Join(t.TempDir(), "daemon"), collect.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	for _, args := range [][]string{
		{"-store", store, "top"},
		{"-store", store, "ls"},
		{"-store", store, "regressions", "-all"},
		{"-store", store, "show", "-maps", "../../snaps/maps", sig},
		{"watch", "-url", node.URL, "-interval", "1ms", "-count", "50"},
	} {
		var errb bytes.Buffer
		if code := run(args, full, &errb); code != 1 {
			t.Errorf("%v with stdout on /dev/full: exit %d, want 1 (stderr: %s)", args, code, errb.String())
		}
		if !strings.Contains(errb.String(), "tbstore: ") {
			t.Errorf("%v: no error on stderr", args)
		}
	}
}
