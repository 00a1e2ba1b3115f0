package verify_test

import (
	"bytes"
	"testing"

	"traceback/internal/module"
	"traceback/internal/verify"
)

// FuzzFleetVerify drives the verifier with an arbitrary serialized
// module alongside a fixed known-good client, so both the per-module
// and the cross-module passes see it. The contract: Verify never
// panics and never loops on loader-supplied modules — malformed inputs
// must come back as diagnostics, because tbcheck -fleet and the
// service load path feed .tbm files straight into it — and its
// diagnostics are deterministic for identical inputs. Seed corpus: the
// clean pair plus every fleet corpus mutation (committed under
// testdata/fuzz by `tools/gen broken`).
func FuzzFleetVerify(f *testing.F) {
	for _, src := range []struct{ name, src string }{
		{"client", clientSrc},
		{"server", serverSrc},
	} {
		mod, err := minicBytes(src.name, src.src)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(mod)
	}
	f.Add([]byte("TBMOD1\x00\x00"))
	f.Add([]byte{})

	var fixed verify.Input
	{
		raw, err := minicBytes("client", clientSrc)
		if err != nil {
			f.Fatal(err)
		}
		m, err := module.Read(bytes.NewReader(raw))
		if err != nil {
			f.Fatal(err)
		}
		fixed = verify.Input{Module: m}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := module.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		inputs := []verify.Input{fixed, {Module: m, Path: "fuzzed"}}
		res := verify.Verify(inputs, verify.Options{MaxPaths: 64})
		if res == nil {
			t.Fatal("Verify returned nil result")
		}
		again := verify.Verify(inputs, verify.Options{MaxPaths: 64})
		var a, b bytes.Buffer
		if err := res.WriteText(&a); err != nil {
			t.Fatal(err)
		}
		if err := again.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("nondeterministic diagnostics:\n--- first\n%s--- second\n%s", a.String(), b.String())
		}
	})
}
