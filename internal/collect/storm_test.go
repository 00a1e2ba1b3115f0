package collect

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"traceback/internal/archive"
)

// TestUploadStormSameSnap: N agents on N machines race to upload the
// same crash (the fleet-wide-outage shape). Exactly one blob and one
// journal entry land, and the bucket counts the content once — the
// warehouse's idempotency holds under the wire protocol, not just the
// local API.
func TestUploadStormSameSnap(t *testing.T) {
	const agents = 8
	// A small inflight bound so the storm also exercises 429 + retry.
	_, ts, arch := newTestDaemon(t, ServerOptions{MaxInflight: 2})

	var wg sync.WaitGroup
	errs := make([]error, agents)
	for i := 0; i < agents; i++ {
		spool := t.TempDir()
		mustSpool(t, spool, 7) // every machine saw the same crash
		ag := fastAgent(t, spool, ts.URL)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = ag.Drain(t.Context())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
	}

	if got := arch.NumBlobs(); got != 1 {
		t.Errorf("storm stored %d blob(s), want exactly 1", got)
	}
	if got := journalLen(t, arch); got != 1 {
		t.Errorf("storm journaled %d record(s), want exactly 1", got)
	}
	buckets := arch.Buckets()
	if len(buckets) != 1 || buckets[0].Count != 1 {
		t.Errorf("storm buckets = %+v, want one bucket counting the content once", buckets)
	}
}

// TestLoopbackIndexParity: a fleet of distinct snaps pushed through
// the full agent→daemon path must produce an index byte-identical to
// a direct local ingest of the same snaps — at every ingest
// concurrency bound, with uploads arriving in arbitrary order from
// racing agents, and with the journal reduction agreeing too.
func TestLoopbackIndexParity(t *testing.T) {
	const fleet = 24

	// The baseline: one direct local ingest per snap, in order.
	direct, err := archive.Open(filepath.Join(t.TempDir(), "direct"))
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	for i := 0; i < fleet; i++ {
		s := mkSnap(fmt.Sprintf("m%02d", i%4), i)
		if _, err := direct.Ingest(s, archive.SignSnap(s, nil)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := direct.IndexBytes()
	if err != nil {
		t.Fatal(err)
	}

	for _, inflight := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("inflight=%d", inflight), func(t *testing.T) {
			_, ts, arch := newTestDaemon(t, ServerOptions{MaxInflight: inflight})

			// Four racing agents split the fleet, so uploads interleave
			// in an order no local ingest would produce.
			var wg sync.WaitGroup
			errs := make([]error, 4)
			for a := 0; a < 4; a++ {
				spool := t.TempDir()
				for i := a; i < fleet; i += 4 {
					if _, err := Spool(spool, mkSnap(fmt.Sprintf("m%02d", i%4), i)); err != nil {
						t.Fatal(err)
					}
				}
				ag := fastAgent(t, spool, ts.URL)
				wg.Add(1)
				go func(a int) {
					defer wg.Done()
					errs[a] = ag.Drain(t.Context())
				}(a)
			}
			wg.Wait()
			for a, err := range errs {
				if err != nil {
					t.Fatalf("agent %d: %v", a, err)
				}
			}

			got, err := arch.IndexBytes()
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("index after agent→daemon upload differs from direct ingest\n got: %s\nwant: %s", got, want)
			}
			rebuilt, err := arch.RebuildIndexBytes()
			if err != nil {
				t.Fatal(err)
			}
			if string(rebuilt) != string(got) {
				t.Error("journal-rebuilt index differs from the live index")
			}
			if arch.NumBlobs() != fleet || journalLen(t, arch) != fleet {
				t.Errorf("store holds %d blob(s), %d record(s), want %d/%d",
					arch.NumBlobs(), journalLen(t, arch), fleet, fleet)
			}
		})
	}
}
