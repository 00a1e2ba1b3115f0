package verify_test

import (
	"testing"

	"traceback/internal/verify"
	"traceback/internal/verify/seed"
)

// TestFleetCorpusRecall is the cross-module recall guarantee, asserted
// in both directions: the clean set verifies with zero errors, and
// every seeded defect is flagged by exactly the pass designed to catch
// it — no other pass, per-module or cross-module, fires error-level,
// so a regression in precision shows up as loudly as one in recall.
func TestFleetCorpusRecall(t *testing.T) {
	cases, err := seed.FleetCases()
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) < 4 {
		t.Fatalf("fleet corpus has %d cases, want at least 4", len(cases))
	}
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			var inputs []verify.Input
			for _, fm := range c.Modules {
				inputs = append(inputs, verify.Input{Module: fm.Module, Path: fm.Name})
			}
			res := verify.Verify(inputs, verify.Options{})
			if c.Pass == "" {
				if !res.Ok() {
					t.Fatalf("baseline set must verify clean, got %d errors:\n%s", res.NumError, textOf(t, res))
				}
				return
			}
			if !res.HasError(c.Pass) {
				t.Fatalf("seeded defect (%s) missed by pass %q; diagnostics:\n%s", c.Desc, c.Pass, textOf(t, res))
			}
			onlyErrors(t, res, c.Pass)
		})
	}
}
