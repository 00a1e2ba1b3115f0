package fault

import (
	"path/filepath"
	"testing"

	"traceback/internal/replay"
	"traceback/internal/scenario"
	"traceback/internal/snap"
)

// corpusDir locates the committed regression corpus.
func corpusDir(t *testing.T) string {
	t.Helper()
	root, err := scenario.Root()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(root, "snaps", "regressions")
}

// TestCommittedCorpus reconstructs every committed regression snap
// and holds it to its manifest: the good cases must resolve exactly
// their recorded faulting lines, and the seeded-known-bad case's
// corruption must be detected. This is the in-process mirror of
// `tbfault replay`. A good case is also a re-executable program: the
// recording its first snap carries must replay to the committed snaps
// byte for byte. (The known-bad snap is evidence corrupted after the
// fact, not a faithful recording of an execution.)
func TestCommittedCorpus(t *testing.T) {
	dir := corpusDir(t)
	corpus, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	good, bad := 0, 0
	for i := range corpus.Cases {
		cc := &corpus.Cases[i]
		t.Run(cc.Name, func(t *testing.T) {
			if err := cc.Verify(dir); err != nil {
				t.Error(err)
			}
			if cc.Expect == ExpectFaultLine {
				replayCase(t, dir, cc)
			}
		})
		switch cc.Expect {
		case ExpectFaultLine:
			good++
			if len(cc.FaultLines) == 0 {
				t.Errorf("case %s: manifest has no expected fault lines", cc.Name)
			}
			if cc.Repro == "" {
				t.Errorf("case %s: manifest has no repro line", cc.Name)
			}
		case ExpectViolation:
			bad++
		}
	}
	if good < 3 {
		t.Errorf("corpus has %d fault-line case(s), want >= 3", good)
	}
	if bad == 0 {
		t.Error("corpus has no seeded-known-bad case")
	}
}

func replayCase(t *testing.T, dir string, cc *CorpusCase) {
	var snaps []*snap.Snap
	for _, name := range cc.Snaps {
		s, err := snap.LoadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, s)
	}
	l, err := replay.FromSnap(snaps[0])
	if err != nil {
		t.Fatalf("%v (regenerate: make gen)", err)
	}
	v, err := replay.Verify(l, snaps)
	if err != nil {
		t.Fatal(err)
	}
	if v.Divergence != nil || !v.Identical {
		t.Errorf("replay from the embedded recording is not byte-identical: %v", v.Divergence)
	}
}

// TestCorpusCasesMatchTrials re-runs each good case's campaign slice
// from its recorded seed and requires the live trial to resolve the
// same fault lines the manifest promises — the repro line on a
// committed case is not decorative.
func TestCorpusCasesMatchTrials(t *testing.T) {
	dir := corpusDir(t)
	corpus, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range corpus.Cases {
		cc := corpus.Cases[i]
		if cc.Expect != ExpectFaultLine {
			continue
		}
		t.Run(cc.Name, func(t *testing.T) {
			c, err := New(Config{Seed: cc.Seed})
			if err != nil {
				t.Fatal(err)
			}
			tr, snaps, _, err := c.Trial(cc.Kind, cc.Scenario)
			if err != nil {
				t.Fatal(err)
			}
			if len(tr.Violations) > 0 {
				t.Fatalf("replayed trial violates: %+v", tr.Violations)
			}
			if len(snaps) != len(cc.Snaps) {
				t.Errorf("replayed trial harvested %d snap(s), corpus committed %d", len(snaps), len(cc.Snaps))
			}
			if !equalStrings(tr.FaultLines, cc.FaultLines) {
				t.Errorf("replayed fault lines %v, manifest %v", tr.FaultLines, cc.FaultLines)
			}
		})
	}
}
