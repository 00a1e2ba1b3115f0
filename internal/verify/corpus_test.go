package verify_test

import (
	"bytes"
	"testing"

	"traceback/internal/verify"
	"traceback/internal/verify/seed"
)

// TestCorpusRecall is the verifier's recall guarantee: every seeded
// defect class is flagged by the pass designed to catch it, and the
// unmutated baseline stays clean. A mutation that stops firing means a
// pass regressed, not that the module got better.
func TestCorpusRecall(t *testing.T) {
	cases, err := seed.Cases()
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) < 7 {
		t.Fatalf("corpus has %d cases, want at least 7", len(cases))
	}
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			res := verifyOne(c.Module, c.Map, verify.Options{})
			var b bytes.Buffer
			res.WriteText(&b)
			if c.Pass == "" {
				if !res.Ok() {
					t.Fatalf("baseline must verify clean, got %d errors:\n%s", res.NumError, b.String())
				}
				return
			}
			if res.Ok() {
				t.Fatalf("seeded defect (%s) not flagged at all:\n%s", c.Desc, b.String())
			}
			if !res.HasError(c.Pass) {
				t.Fatalf("seeded defect (%s) missed by pass %q; diagnostics:\n%s", c.Desc, c.Pass, b.String())
			}
		})
	}
}

// TestCorpusModuleOnly: the module-level defects must be caught even
// without a mapfile (tbcheck over a bare .tbm).
func TestCorpusModuleOnly(t *testing.T) {
	cases, err := seed.Cases()
	if err != nil {
		t.Fatal(err)
	}
	// missing-probe is deliberately absent: only the mapfile says a
	// block was assigned a path bit, so a NOPed lightweight probe is
	// invisible to module-only verification.
	moduleLevel := map[string]bool{
		"clobbering-probe":   true,
		"ambiguous-encoding": true,
	}
	for _, c := range cases {
		if !moduleLevel[c.Name] {
			continue
		}
		t.Run(c.Name, func(t *testing.T) {
			res := verifyOne(c.Module, nil, verify.Options{})
			if !res.HasError(c.Pass) {
				var b bytes.Buffer
				res.WriteText(&b)
				t.Fatalf("module-only verification missed the %s defect:\n%s", c.Name, b.String())
			}
		})
	}
}
