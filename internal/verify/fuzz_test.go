package verify_test

import (
	"encoding/json"
	"testing"

	"traceback/internal/module"
	"traceback/internal/verify"
	"traceback/internal/verify/seed"
)

// FuzzMapFileVerify drives the verifier with arbitrary mapfiles
// against a fixed instrumented module. The contract under test: Verify
// never panics and never loops — malformed or adversarial maps must
// come back as diagnostics, because tbrun and the snap service feed
// loader-supplied mapfiles straight into it. Seed corpus: the real
// clean mapfile plus every corpus mutation (committed under
// testdata/fuzz by `tools/gen broken`).
func FuzzMapFileVerify(f *testing.F) {
	m, mf, err := seed.Base()
	if err != nil {
		f.Fatal(err)
	}
	raw, err := json.Marshal(mf)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"module":"seedapp","dagCount":1,"dags":[{"id":0,"blocks":[{"start":0,"end":2,"bit":-1}]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		fz := &module.MapFile{}
		if err := json.Unmarshal(data, fz); err != nil {
			return
		}
		res := verifyOne(m, fz, verify.Options{MaxPaths: 64})
		if res == nil {
			t.Fatal("Verify returned nil result")
		}
	})
}
