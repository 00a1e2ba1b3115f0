package fault

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"traceback/internal/module"
	"traceback/internal/recon"
	"traceback/internal/snap"
)

// The regression corpus: every campaign failure (and a few always-on
// seed cases) is committed under snaps/regressions/ as the snaps +
// mapfiles of the trial plus a manifest entry carrying the repro line
// and the expected diagnosis. `tbfault replay` re-reconstructs every
// case and holds it to its manifest — the corpus is the campaign's
// long-term memory.

// Corpus expectations.
const (
	// ExpectFaultLine: every snap reconstructs and the resolved
	// faulting (or last-executed) lines equal the manifest's.
	ExpectFaultLine = "fault-line"
	// ExpectViolation: the case is seeded-known-bad — at least one
	// snap must FAIL to reconstruct. A replay where the corruption
	// goes undetected fails the gate: it means the checker lost its
	// teeth.
	ExpectViolation = "violation"
)

// CorpusCase is one committed regression case.
type CorpusCase struct {
	Name     string `json:"name"`
	Kind     string `json:"kind,omitempty"`
	Scenario string `json:"scenario,omitempty"`
	Seed     int64  `json:"seed"`
	// Repro reruns the campaign slice that produced the case.
	Repro string `json:"repro"`
	// Snaps and Maps are file names relative to the corpus dir (maps
	// live in its maps/ subdirectory).
	Snaps []string `json:"snaps"`
	Maps  []string `json:"maps"`
	// Expect is ExpectFaultLine or ExpectViolation.
	Expect string `json:"expect"`
	// FaultLines is the expected diagnosis (ExpectFaultLine only).
	FaultLines []string `json:"faultLines,omitempty"`
	// Detail documents what is wrong with a known-bad case.
	Detail string `json:"detail,omitempty"`
}

// Corpus is the manifest of snaps/regressions/.
type Corpus struct {
	V     int          `json:"v"`
	Cases []CorpusCase `json:"cases"`
}

// ManifestName is the corpus manifest file name.
const ManifestName = "manifest.json"

// LoadCorpus reads a corpus manifest from dir.
func LoadCorpus(dir string) (*Corpus, error) {
	b, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("fault: corpus: %w", err)
	}
	var c Corpus
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("fault: corpus manifest: %w", err)
	}
	if c.V != 1 {
		return nil, fmt.Errorf("fault: corpus manifest version %d, want 1", c.V)
	}
	if len(c.Cases) == 0 {
		return nil, fmt.Errorf("fault: corpus has no cases")
	}
	return &c, nil
}

// Verify replays one corpus case from dir: loads its snaps and maps,
// reconstructs, and holds the result to the manifest's expectation.
func (cc *CorpusCase) Verify(dir string) error {
	ms := recon.NewMapSet()
	for _, name := range cc.Maps {
		mf, err := module.ReadMapFile(filepath.Join(dir, "maps", name))
		if err != nil {
			return fmt.Errorf("case %s: %w", cc.Name, err)
		}
		ms.Add(mf)
	}
	var procs []*recon.ProcessTrace
	var failures []string
	for _, name := range cc.Snaps {
		s, err := snap.LoadFile(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("case %s: %w", cc.Name, err)
		}
		pt, err := recon.Reconstruct(s, ms)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		procs = append(procs, pt)
	}

	switch cc.Expect {
	case ExpectFaultLine:
		if len(failures) > 0 {
			return fmt.Errorf("case %s: reconstruction failed: %s", cc.Name, strings.Join(failures, "; "))
		}
		got := faultLines(procs)
		if len(got) == 0 {
			got = lastLines(procs)
		}
		want := append([]string(nil), cc.FaultLines...)
		sort.Strings(want)
		if !equalStrings(got, want) {
			return fmt.Errorf("case %s: fault lines %v, manifest expects %v", cc.Name, got, want)
		}
		return nil
	case ExpectViolation:
		if len(failures) == 0 {
			return fmt.Errorf("case %s: seeded corruption went UNDETECTED: every snap reconstructed cleanly (%s)",
				cc.Name, cc.Detail)
		}
		return nil
	default:
		return fmt.Errorf("case %s: unknown expectation %q", cc.Name, cc.Expect)
	}
}

// VerifyCorpus replays every case; the returned error joins all
// failures.
func VerifyCorpus(dir string) error {
	c, err := LoadCorpus(dir)
	if err != nil {
		return err
	}
	var errs []string
	for i := range c.Cases {
		if err := c.Cases[i].Verify(dir); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("fault: corpus: %d of %d case(s) failed:\n  %s",
			len(errs), len(c.Cases), strings.Join(errs, "\n  "))
	}
	return nil
}

// CorruptModuleTable deterministically seeds the known-bad case: the
// snap's first module checksum is rewritten, so its DAG records
// resolve to a mapfile the warehouse does not have and
// reconstruction must fail. This models a snap whose module table
// was corrupted between crash and collection — exactly the class of
// damage the no-torn-records invariant exists to catch.
func CorruptModuleTable(s *snap.Snap) {
	if len(s.Modules) > 0 {
		s.Modules[0].Checksum = "deadbeefdeadbeefdeadbeefdeadbeef"
	}
}

// WriteArtifacts commits each violating trial's evidence bundle
// under dir — snaps, mapfiles, and the machine-readable repro line —
// so a campaign failure can be attached to a bug report or promoted
// into the committed corpus. Returns the bundle directories written.
func WriteArtifacts(dir string, arts []Artifact) ([]string, error) {
	var paths []string
	for _, a := range arts {
		base := filepath.Join(dir, fmt.Sprintf("%03d-%s-%s", a.TrialIndex, a.Kind, a.Scenario))
		if err := os.MkdirAll(filepath.Join(base, "maps"), 0o755); err != nil {
			return paths, err
		}
		for i, s := range a.Snaps {
			if err := snap.SaveFile(filepath.Join(base, fmt.Sprintf("snap-%d.snap.json.gz", i+1)), s); err != nil {
				return paths, err
			}
		}
		for _, mf := range a.Maps {
			if err := module.WriteMapFile(filepath.Join(base, "maps", mf.ModuleName+".map.json"), mf); err != nil {
				return paths, err
			}
		}
		repro := a.Repro + "\n"
		// When the harvest carries its recording, the bundle is also
		// replayable standalone: add the ready-to-run tbreplay line
		// (relative to the bundle directory).
		for i, s := range a.Snaps {
			if s.Nondet != nil {
				repro += fmt.Sprintf("tbreplay snap-%d.snap.json.gz\n", i+1)
				break
			}
		}
		if err := os.WriteFile(filepath.Join(base, "repro.txt"), []byte(repro), 0o644); err != nil {
			return paths, err
		}
		paths = append(paths, base)
	}
	return paths, nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
