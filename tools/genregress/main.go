// genregress regenerates the committed fault-campaign regression
// corpus under snaps/regressions/: a handful of seed-1 campaign
// trials committed as snap+mapfile bundles with their expected
// diagnosis, plus one seeded-known-bad case whose module table is
// deliberately corrupted so reconstruction must fail. The VM is
// deterministic, so the output is byte-identical on every run;
// `tbfault replay -dir snaps/regressions` holds every case to its
// manifest and is wired into `make fault-check`.
//
//	go run ./tools/genregress            # writes into snaps/regressions/
//	go run ./tools/genregress -out d     # writes into d/
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"traceback/internal/fault"
	"traceback/internal/module"
	"traceback/internal/snap"
)

func main() {
	out := flag.String("out", filepath.Join("snaps", "regressions"), "corpus directory (maps go in <out>/maps)")
	flag.Parse()
	if err := generate(*out); err != nil {
		fmt.Fprintln(os.Stderr, "genregress:", err)
		os.Exit(1)
	}
}

const seed = 1

func generate(out string) error {
	if err := os.MkdirAll(filepath.Join(out, "maps"), 0o755); err != nil {
		return err
	}
	// Record: the committed snaps carry their nondeterminism recording
	// as an embedded section, so every corpus case (except the seeded
	// known-bad one) replays standalone — `make replay-check` holds
	// each to byte-identical re-execution.
	c, err := fault.New(fault.Config{Seed: seed, Record: true})
	if err != nil {
		return err
	}

	specs := []struct{ name, kind, scen string }{
		{"kill-crossmachine", fault.KindKill, "crossmachine"},
		{"signal-quickstart", fault.KindSignal, "quickstart"},
		{"wrap-crossmachine", fault.KindWrap, "crossmachine"},
		{"managed-interrupt", fault.KindManaged, "petshop"},
	}
	man := fault.Corpus{V: 1}
	written := map[string]bool{}
	var badSource *snap.Snap // clone source for the known-bad case
	var badMaps []string

	for _, sp := range specs {
		tr, snaps, maps, err := c.Trial(sp.kind, sp.scen)
		if err != nil {
			return fmt.Errorf("case %s: %w", sp.name, err)
		}
		// Committed ground truth must be clean and diagnosable.
		if len(tr.Violations) > 0 {
			return fmt.Errorf("case %s: trial violates its own invariants: %+v", sp.name, tr.Violations)
		}
		if len(tr.FaultLines) == 0 {
			return fmt.Errorf("case %s: no fault line resolved; nothing to regress against", sp.name)
		}
		if !tr.Replayed {
			return fmt.Errorf("case %s: recording did not replay-verify (%s)", sp.name, tr.ReplayDivergence)
		}
		cc := fault.CorpusCase{
			Name: sp.name, Kind: sp.kind, Scenario: sp.scen, Seed: seed,
			Repro: tr.Repro, Expect: fault.ExpectFaultLine, FaultLines: tr.FaultLines,
		}
		for i, s := range snaps {
			fn := fmt.Sprintf("%s-%d.snap.json.gz", sp.name, i+1)
			if err := snap.SaveFile(filepath.Join(out, fn), s); err != nil {
				return err
			}
			cc.Snaps = append(cc.Snaps, fn)
		}
		for _, mf := range maps {
			fn := mf.ModuleName + ".map.json"
			if !written[fn] {
				if err := writeMap(filepath.Join(out, "maps", fn), mf); err != nil {
					return err
				}
				written[fn] = true
			}
			cc.Maps = append(cc.Maps, fn)
		}
		if sp.name == "kill-crossmachine" {
			if badSource, err = cloneSnap(snaps[0]); err != nil {
				return err
			}
			badMaps = cc.Maps
		}
		man.Cases = append(man.Cases, cc)
	}

	// The seeded-known-bad case: a real snap whose module table is
	// deterministically corrupted. Replay requires reconstruction to
	// FAIL — if it ever passes, the checker has lost its teeth and
	// the gate goes red.
	fault.CorruptModuleTable(badSource)
	bad := fault.CorpusCase{
		Name: "torn-module-table", Kind: fault.KindKill, Scenario: "crossmachine", Seed: seed,
		Repro:  fault.Repro(seed, []string{fault.KindKill}, []string{"crossmachine"}),
		Snaps:  []string{"torn-module-table-1.snap.json.gz"},
		Maps:   badMaps,
		Expect: fault.ExpectViolation,
		Detail: "module table checksum deliberately corrupted by genregress; reconstruction must fail",
	}
	if err := snap.SaveFile(filepath.Join(out, bad.Snaps[0]), badSource); err != nil {
		return err
	}
	man.Cases = append(man.Cases, bad)

	if err := writeManifest(out, &man); err != nil {
		return err
	}
	// Sanity: every case must behave as its manifest advertises
	// before being committed as ground truth.
	for i := range man.Cases {
		if err := man.Cases[i].Verify(out); err != nil {
			return fmt.Errorf("self-check: %w", err)
		}
	}
	fmt.Printf("wrote %d case(s) (%d known-bad) into %s\n", len(man.Cases), 1, out)
	return nil
}

func writeManifest(out string, man *fault.Corpus) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(man); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, fault.ManifestName), buf.Bytes(), 0o644)
}

func writeMap(path string, mf *module.MapFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := mf.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cloneSnap(s *snap.Snap) (*snap.Snap, error) {
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		return nil, err
	}
	return snap.Load(&buf)
}
