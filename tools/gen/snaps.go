package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"traceback/internal/fault"
	"traceback/internal/scenario"
	"traceback/internal/snap"
)

// genSnaps writes the example scenarios' snaps into root/snaps and
// their mapfiles into root/snaps/maps: the fleet the warehouse and
// collection-plane tests ingest, committed recording-free.
func genSnaps(root string) error {
	builts, err := scenario.All()
	if err != nil {
		return err
	}
	for _, b := range builts {
		if _, err := b.Write(filepath.Join(root, "snaps")); err != nil {
			return err
		}
	}
	return nil
}

const regressSeed = 1

// genRegressions writes root/snaps/regressions: a handful of seed-1
// campaign trials as snap+mapfile bundles with their expected
// diagnosis, plus one seeded-known-bad case whose module table is
// deliberately corrupted so reconstruction must fail. The snaps carry
// their nondeterminism recording, so every case but the known-bad one
// replays standalone. `tbfault replay` and fault.TestCommittedCorpus
// hold every case to the manifest.
func genRegressions(root string) error {
	out := filepath.Join(root, "snaps", "regressions")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	c, err := fault.New(fault.Config{Seed: regressSeed, Record: true})
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
			Name: sp.name, Kind: sp.kind, Scenario: sp.scen, Seed: regressSeed,
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
			if err := writeMap(filepath.Join(out, "maps", fn), mf); err != nil {
				return err
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
	// FAIL — if it ever passes, the checker has lost its teeth.
	fault.CorruptModuleTable(badSource)
	bad := fault.CorpusCase{
		Name: "torn-module-table", Kind: fault.KindKill, Scenario: "crossmachine", Seed: regressSeed,
		Repro:  fault.Repro(regressSeed, []string{fault.KindKill}, []string{"crossmachine"}),
		Snaps:  []string{"torn-module-table-1.snap.json.gz"},
		Maps:   badMaps,
		Expect: fault.ExpectViolation,
		Detail: "module table checksum deliberately corrupted by tools/gen; reconstruction must fail",
	}
	if err := snap.SaveFile(filepath.Join(out, bad.Snaps[0]), badSource); err != nil {
		return err
	}
	man.Cases = append(man.Cases, bad)

	if err := writeManifest(out, "  ", &man); err != nil {
		return err
	}
	// Every case must behave as its manifest advertises before being
	// committed as ground truth.
	return fault.VerifyCorpus(out)
}

func cloneSnap(s *snap.Snap) (*snap.Snap, error) {
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		return nil, err
	}
	return snap.Load(&buf)
}
