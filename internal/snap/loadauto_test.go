package snap

import (
	"bytes"
	"compress/gzip"
	"errors"
	"strings"
	"testing"
)

func testSnap() *Snap {
	return &Snap{
		Host: "h", Process: "p", PID: 1, RuntimeID: 42, Reason: "api", Time: 99,
		Buffers: []BufferDump{{Kind: BufMain, OwnerTID: 1, LastPtr: 0, LastKnown: true,
			SubWords: 4, Raw: []byte{1, 0, 0, 0}}},
	}
}

func gzipped(t *testing.T, s *Snap) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SaveCompressed(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadAutoEmptyInput(t *testing.T) {
	_, err := LoadAuto(strings.NewReader(""))
	if !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestLoadAutoTruncatedGzip(t *testing.T) {
	z := gzipped(t, testSnap())
	// Cut at several depths: inside the header, inside the deflate
	// body, and inside the 8-byte CRC/size trailer.
	for _, cut := range []int{3, len(z) / 2, len(z) - 4} {
		_, err := LoadAuto(bytes.NewReader(z[:cut]))
		if err == nil {
			t.Fatalf("cut at %d: no error", cut)
		}
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestLoadAutoTrailingGarbage(t *testing.T) {
	z := gzipped(t, testSnap())
	for name, tail := range map[string][]byte{
		"junk":          []byte("EXTRA BYTES"),
		"second-member": gzipped(t, testSnap()),
	} {
		_, err := LoadAuto(bytes.NewReader(append(append([]byte(nil), z...), tail...)))
		if !errors.Is(err, ErrTrailingData) {
			t.Errorf("%s: err = %v, want ErrTrailingData", name, err)
		}
	}
}

func TestLoadAutoGzipNonJSON(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte("not json at all"))
	zw.Close()
	_, err := LoadAuto(&buf)
	if err == nil {
		t.Fatal("no error for gzip-wrapped non-JSON")
	}
	if errors.Is(err, ErrTruncated) || errors.Is(err, ErrTrailingData) || errors.Is(err, ErrEmpty) {
		t.Errorf("err = %v misclassified; want a plain decode failure", err)
	}
}

func TestLoadAutoCompleteMemberStillLoads(t *testing.T) {
	s, err := LoadAuto(bytes.NewReader(gzipped(t, testSnap())))
	if err != nil {
		t.Fatal(err)
	}
	if s.RuntimeID != 42 {
		t.Fatalf("RuntimeID = %d, want 42", s.RuntimeID)
	}
}

func TestLoadAutoOneBytePlain(t *testing.T) {
	// A single non-gzip byte is not empty, not gzip: it must fall to
	// the plain-JSON path and fail there without panicking.
	_, err := LoadAuto(strings.NewReader("{"))
	if err == nil {
		t.Fatal("no error for bare '{'")
	}
	if errors.Is(err, ErrEmpty) {
		t.Error("bare '{' misclassified as empty")
	}
}

// inflatesTo builds a gzip member holding an empty snap padded with
// whitespace to n inflated bytes: a few dozen KB on the wire.
func inflatesTo(t testing.TB, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	zw.Write([]byte("{}"))
	pad := bytes.Repeat([]byte(" "), 1<<20)
	for left := n - 2; left > 0; left -= len(pad) {
		if left < len(pad) {
			pad = pad[:left]
		}
		zw.Write(pad)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadAutoInflateCap: a member may inflate to MaxInflatedBytes and
// no further; the bomb is refused as ErrTooLarge without its tail ever
// being materialized.
func TestLoadAutoInflateCap(t *testing.T) {
	if _, err := LoadAuto(bytes.NewReader(inflatesTo(t, MaxInflatedBytes))); err != nil {
		t.Errorf("member of exactly the cap: %v", err)
	}
	bomb := inflatesTo(t, MaxInflatedBytes+1)
	if len(bomb) > 1<<20 {
		t.Fatalf("bomb is %d bytes compressed; the test wants a small one", len(bomb))
	}
	if _, err := LoadAuto(bytes.NewReader(bomb)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("one byte past the cap: err = %v, want ErrTooLarge", err)
	}
}
