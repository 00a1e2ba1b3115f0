package collect

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"traceback/internal/archive"
	"traceback/internal/snap"
)

// FuzzUploadBody sends arbitrary bytes to POST /v1/snap, with and
// without a claimed content address. The daemon must never panic or
// answer 5xx; a 2xx must echo a resident address whose blob decodes
// back to a snap with that address (and, under a claim, the claimed
// one); any other answer must journal nothing.
func FuzzUploadBody(f *testing.F) {
	s := mkSnap("h1", 1)
	sum, canonical, err := archive.ChecksumSnap(s)
	if err != nil {
		f.Fatal(err)
	}
	var zipped bytes.Buffer
	if err := s.SaveCompressed(&zipped); err != nil {
		f.Fatal(err)
	}
	f.Add(zipped.Bytes(), sum)
	f.Add(canonical, "")
	f.Add(zipped.Bytes(), strings.Repeat("ab", 32))
	f.Add(append(bytes.Clone(canonical), `{}`...), "")
	f.Add(append(bytes.Clone(zipped.Bytes()), zipped.Bytes()...), sum)
	f.Add([]byte(`{"pArtners":[]}`), "")
	f.Add([]byte("not a snap"), "")
	f.Add([]byte{0x1f, 0x8b}, "")

	arch, err := archive.Open(filepath.Join(f.TempDir(), "wh"))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { arch.Close() })
	h := NewServer(arch, ServerOptions{}).Handler()

	f.Fuzz(func(t *testing.T, body []byte, claim string) {
		journal := journalLen(t, arch)
		req := httptest.NewRequest(http.MethodPost, PathSnap, bytes.NewReader(body))
		if claim != "" {
			req.Header.Set(HeaderSum, claim)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch {
		case rec.Code >= 500:
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		case rec.Code == http.StatusOK || rec.Code == http.StatusCreated:
			var ur UploadResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &ur); err != nil {
				t.Fatalf("2xx reply does not decode: %v", err)
			}
			if claim != "" && ur.Sum != claim {
				t.Fatalf("echo %s, claimed %s", ur.Sum, claim)
			}
			if !arch.Has(ur.Sum) {
				t.Fatalf("echoed %s is not resident", ur.Sum)
			}
			rc, _, err := arch.OpenBlob(ur.Sum)
			if err != nil {
				t.Fatal(err)
			}
			stored, err := snap.LoadAuto(rc)
			rc.Close()
			if err != nil {
				t.Fatalf("blob %s does not load: %v", ur.Sum, err)
			}
			if got, _, err := archive.ChecksumSnap(stored); err != nil || got != ur.Sum {
				t.Fatalf("blob %s loads as a snap addressed %s (%v)", ur.Sum, got, err)
			}
		default:
			if n := journalLen(t, arch); n != journal {
				t.Fatalf("status %d journaled: %d → %d records", rec.Code, journal, n)
			}
		}
	})
}
