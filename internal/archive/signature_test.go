// Signature stability is what makes warehouse buckets meaningful:
// the same fault must fingerprint identically across re-runs and
// across ingest concurrency, and distinct faults must not collide.
// These tests drive the real example workloads through
// internal/scenario (the deterministic VM reproduces each crash
// byte-for-byte), so they cover the exact snaps the quickstart and
// crossmachine examples ship. External test package: scenario pulls
// in internal/service, which itself depends on archive.
package archive_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"traceback/internal/archive"
	"traceback/internal/scenario"
	"traceback/internal/snap"
)

func sigsOf(t *testing.T, b *scenario.Built) []archive.Signature {
	t.Helper()
	maps := scenario.MapSet(b)
	out := make([]archive.Signature, len(b.Snaps))
	for i, s := range b.Snaps {
		out[i] = archive.SignSnap(s, maps)
		if out[i].Weak {
			t.Errorf("%s snap %d (%s): weak signature %q — reconstruction failed",
				b.Name, i, s.Reason, out[i].Title)
		}
	}
	return out
}

// TestSignatureStableAcrossRuns re-runs each example twice and
// requires identical fingerprints (and identical snap content — the
// dedup premise) both times.
func TestSignatureStableAcrossRuns(t *testing.T) {
	for _, name := range []string{"quickstart", "crossmachine"} {
		t.Run(name, func(t *testing.T) {
			run := func() *scenario.Built {
				s, err := scenario.Build(name, scenario.Options{})
				if err != nil {
					t.Fatal(err)
				}
				s.Run(0)
				b, err := s.Collect()
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			b1, b2 := run(), run()
			if len(b1.Snaps) != len(b2.Snaps) {
				t.Fatalf("run 1 took %d snaps, run 2 %d", len(b1.Snaps), len(b2.Snaps))
			}
			s1, s2 := sigsOf(t, b1), sigsOf(t, b2)
			for i := range s1 {
				if s1[i].ID != s2[i].ID {
					t.Errorf("snap %d: signature changed across runs: %s (%s) vs %s (%s)",
						i, s1[i].ID, s1[i].Title, s2[i].ID, s2[i].Title)
				}
			}
			for i := range b1.Snaps {
				c1, _, err := archive.ChecksumSnap(b1.Snaps[i])
				if err != nil {
					t.Fatal(err)
				}
				c2, _, err := archive.ChecksumSnap(b2.Snaps[i])
				if err != nil {
					t.Fatal(err)
				}
				if c1 != c2 {
					t.Errorf("snap %d: content not reproducible across runs (%s vs %s)", i, c1[:8], c2[:8])
				}
			}
		})
	}
}

// TestDistinctFaultsDistinctSignatures: every snap the three examples
// produce captures a different fault (divide-by-zero, wcscpy SIGSEGV,
// two post-mortems, a deadlock hang) — none may share a bucket.
func TestDistinctFaultsDistinctSignatures(t *testing.T) {
	builts, err := scenario.All()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{} // sig → "scenario/title"
	total := 0
	for _, b := range builts {
		for i, sig := range sigsOf(t, b) {
			total++
			key := fmt.Sprintf("%s snap %d (%s)", b.Name, i, sig.Title)
			if prev, dup := seen[sig.ID]; dup {
				t.Errorf("signature collision %s: %s and %s", sig.ID, prev, key)
			}
			seen[sig.ID] = key
		}
	}
	if total < 5 {
		t.Errorf("examples produced %d snaps, want >= 5 distinct faults", total)
	}
}

// TestIngestStableAcrossConcurrency ingests the full example fleet —
// each snap three times over — at worker widths 1, 4, and 16, and
// requires byte-identical indexes from all three stores.
func TestIngestStableAcrossConcurrency(t *testing.T) {
	builts, err := scenario.All()
	if err != nil {
		t.Fatal(err)
	}
	type item struct {
		s   *snap.Snap
		sig archive.Signature
	}
	var batch []item
	for _, b := range builts {
		maps := scenario.MapSet(b)
		for _, s := range b.Snaps {
			sig := archive.SignSnap(s, maps)
			for rep := 0; rep < 3; rep++ {
				batch = append(batch, item{s, sig})
			}
		}
	}

	var indexes [][]byte
	for _, jobs := range []int{1, 4, 16} {
		a, err := archive.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		sem := make(chan struct{}, jobs)
		errs := make([]error, len(batch))
		for i := range batch {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer func() { <-sem; wg.Done() }()
				_, errs[i] = a.Ingest(batch[i].s, batch[i].sig)
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		idx, err := a.IndexBytes()
		if err != nil {
			t.Fatal(err)
		}
		rebuilt, err := a.RebuildIndexBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(idx, rebuilt) {
			t.Errorf("jobs=%d: journal rebuild differs from live index", jobs)
		}
		// Triplicated ingest dedupes to one blob per distinct snap.
		for _, b := range a.Buckets() {
			if b.Count != 3*uint64(len(b.Snaps)) {
				t.Errorf("jobs=%d: bucket %s count %d with %d blobs, want 3x", jobs, b.Sig, b.Count, len(b.Snaps))
			}
		}
		indexes = append(indexes, idx)
		a.Close()
	}
	if !bytes.Equal(indexes[0], indexes[1]) || !bytes.Equal(indexes[0], indexes[2]) {
		t.Errorf("index bytes differ across jobs widths:\n--- jobs 1 ---\n%s\n--- jobs 4 ---\n%s\n--- jobs 16 ---\n%s",
			indexes[0], indexes[1], indexes[2])
	}
}
