package snap

import (
	"bytes"
	"compress/gzip"
	"io"
	"reflect"
	"testing"
)

// FuzzSnapReader feeds arbitrary bytes — including gzipped snaps,
// truncated gzip streams and plain JSON — to the snap reader.
// LoadAuto must either return a snap or an error, never panic, and
// any snap it accepts must survive save→load round trips in both
// plain and compressed form. LoadCanonical, the collection daemon's
// reader, must accept and reject exactly what LoadAuto does and
// decode the same snap.
func FuzzSnapReader(f *testing.F) {
	valid := &Snap{
		Host: "h", Process: "p", PID: 7, RuntimeID: 0xabcdef, Reason: "api",
		Time: 123456,
		Modules: []ModuleInfo{{
			Name: "m", Checksum: "00ff", ActualDAGBase: 1, DAGCount: 2,
			CodeBase: 0x1000, CodeLen: 64, DataDump: []byte{1, 2, 3},
		}},
		Buffers: []BufferDump{{
			Kind: BufMain, OwnerTID: 1, LastPtr: 3, LastKnown: true,
			CommittedSub: 0, SubWords: 4, Raw: []byte{0xAA, 0, 0, 0x80, 0xFF, 0xFF, 0xFF, 0xFF},
		}},
	}
	gz := func(b []byte) []byte {
		var buf bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
		zw.Write(b)
		zw.Close()
		return buf.Bytes()
	}
	var plain bytes.Buffer
	if err := valid.Save(&plain); err != nil {
		f.Fatal(err)
	}
	f.Add(gz(plain.Bytes()))

	var zipped bytes.Buffer
	if err := valid.SaveCompressed(&zipped); err != nil {
		f.Fatal(err)
	}
	f.Add(zipped.Bytes())
	// Truncated gzip: valid magic and header, body cut mid-stream.
	f.Add(zipped.Bytes()[:len(zipped.Bytes())/2])
	// Gzip magic with nothing behind it.
	f.Add([]byte{0x1f, 0x8b})
	// Gzip wrapping non-JSON.
	f.Add(gz([]byte("not json")))
	// Plain input (refused) and empty-ish members.
	f.Add([]byte("{"))
	f.Add(gz([]byte("{}")))
	f.Add(gz([]byte(`{"buffers":[{"raw":"AAAA"}]}`)))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := LoadAuto(bytes.NewReader(data))
		cs, raw, cerr := LoadCanonical(bytes.NewReader(data))
		if (err == nil) != (cerr == nil) {
			t.Fatalf("LoadAuto error %v, LoadCanonical error %v", err, cerr)
		}
		if err != nil {
			return // rejecting is always fine; panicking is not
		}
		if !reflect.DeepEqual(s, cs) {
			t.Fatalf("LoadCanonical decodes a different snap than LoadAuto")
		}
		// raw is all that the input's one gzip member inflates to.
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("accepted input is not gzip: %v", err)
		}
		zr.Multistream(false)
		want, err := io.ReadAll(zr)
		if err != nil {
			t.Fatalf("accepted gzip member does not inflate: %v", err)
		}
		if !bytes.Equal(raw, want) {
			t.Fatalf("LoadCanonical returned %d bytes, the input's JSON stream holds %d", len(raw), len(want))
		}
		// One save canonicalizes (fuzzer inputs may carry forms Save
		// never emits, e.g. present-but-empty omitempty fields); from
		// then on save→load→save must be a byte-for-byte fixed point.
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatalf("accepted snap fails to save: %v", err)
		}
		canonical := append([]byte(nil), buf.Bytes()...)
		s2, err := Load(&buf)
		if err != nil {
			t.Fatalf("saved snap fails to reload: %v", err)
		}
		var buf2 bytes.Buffer
		if err := s2.Save(&buf2); err != nil {
			t.Fatalf("resave: %v", err)
		}
		if !bytes.Equal(canonical, buf2.Bytes()) {
			t.Fatalf("save is not a fixed point after canonicalization:\n%s\nvs\n%s", canonical, buf2.Bytes())
		}
		var zbuf bytes.Buffer
		if err := s2.SaveCompressed(&zbuf); err != nil {
			t.Fatalf("compressed save: %v", err)
		}
		s3, err := LoadAuto(bytes.NewReader(zbuf.Bytes()))
		if err != nil {
			t.Fatalf("compressed reload: %v", err)
		}
		if !reflect.DeepEqual(s2, s3) {
			t.Fatalf("compressed round trip changed the snap")
		}
		// Decoding buffer words must tolerate whatever Raw came in
		// (including lengths that are not word multiples).
		for i := range s.Buffers {
			_ = s.Buffers[i].Words()
		}
	})
}
