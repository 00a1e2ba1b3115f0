package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"path/filepath"

	"traceback/internal/snap"
	"traceback/internal/trace"
)

// seedDir collects fuzz seeds for one fuzz target; the first write
// error sticks.
type seedDir struct {
	dir string
	err error
}

func (d *seedDir) add(name string, data []byte) {
	if d.err == nil {
		d.err = writeSeed(d.dir, name, data)
	}
}

func (d *seedDir) words(name string, ws []uint32) {
	out := make([]byte, len(ws)*4)
	for i, w := range ws {
		binary.LittleEndian.PutUint32(out[i*4:], w)
	}
	d.add(name, out)
}

// genFuzz writes the hand-picked seeds of the two decoders every snap
// passes through: FuzzTraceRecordDecode and FuzzSnapReader.
func genFuzz(root string) error {
	td := &seedDir{dir: filepath.Join(root, "internal", "trace", "testdata", "fuzz", "FuzzTraceRecordDecode")}
	var ws []uint32
	ws = append(ws, trace.DAGWord(7, 0b1011))
	ws = trace.AppendTimestamp(ws, 0x1122334455667788)
	ws = append(ws, trace.DAGWord(9, 0))
	ws = trace.AppendSync(ws, trace.Sync{Point: trace.SyncCallSend, RuntimeID: 0xdead, LogicalThread: 3, Seq: 1, TS: 42})
	ws = trace.AppendThreadStart(ws, 1, 100)
	td.words("wellformed-stream", ws)
	td.words("torn-stream", ws[3:])
	td.words("sentinels", []uint32{trace.Invalid, trace.Sentinel, trace.DAGWord(1, 1), trace.Sentinel})
	td.words("kind-zero-trailer", []uint32{0x00020000, 0x7F020000})
	td.words("kind-7f-trailer", []uint32{0x7F020000, 0x7F02007F})
	td.words("exception", trace.AppendException(nil, trace.Exception{Code: 8, Addr: 0x401000, TS: 999}))
	td.add("unaligned", []byte{0x7f, 0x02, 0x00})
	td.words("bad-dag", []uint32{trace.DAGWord(trace.BadDAGID, 0x3FF)})
	if td.err != nil {
		return td.err
	}

	sd := &seedDir{dir: filepath.Join(root, "internal", "snap", "testdata", "fuzz", "FuzzSnapReader")}
	valid := &snap.Snap{
		Host: "h", Process: "p", PID: 7, RuntimeID: 0xabcdef, Reason: "api",
		Time: 123456,
		Modules: []snap.ModuleInfo{{
			Name: "m", Checksum: "00ff", ActualDAGBase: 1, DAGCount: 2,
			CodeBase: 0x1000, CodeLen: 64, DataBase: 0x2000, DataDump: []byte{1, 2, 3},
		}},
		Buffers: []snap.BufferDump{{
			Kind: snap.BufMain, OwnerTID: 1, LastPtr: 3, LastKnown: true,
			SubWords: 4, Raw: []byte{0xAA, 0, 0, 0x80, 0xFF, 0xFF, 0xFF, 0xFF},
		}},
		Partners: []uint64{9},
	}
	var plain, zipped, junkz, bomb bytes.Buffer
	if err := valid.Save(&plain); err != nil {
		return err
	}
	if err := valid.SaveCompressed(&zipped); err != nil {
		return err
	}
	if err := snap.WriteGzip(&junkz, []byte("not json")); err != nil {
		return err
	}
	// Decompression bomb: an empty snap padded with whitespace to one
	// byte past snap.MaxInflatedBytes. LoadAuto must refuse it
	// (snap.ErrTooLarge) without materializing the padding.
	if err := snap.WriteGzip(&bomb, append([]byte("{}"), bytes.Repeat([]byte(" "), snap.MaxInflatedBytes-1)...)); err != nil {
		return err
	}
	sd.add("valid-json", plain.Bytes())
	sd.add("valid-gzip", zipped.Bytes())
	sd.add("truncated-gzip", zipped.Bytes()[:zipped.Len()/2])
	sd.add("bare-gzip-magic", []byte{0x1f, 0x8b})
	sd.add("gzip-non-json", junkz.Bytes())
	sd.add("open-brace", []byte("{"))
	sd.add("empty-object", []byte("{}"))
	sd.add("raw-buffer", []byte(`{"buffers":[{"raw":"AAAA"}]}`))
	sd.add("empty", []byte{})
	// Fuzzer-found: case-insensitive JSON field matching can populate
	// an omitempty slice with a present-but-empty value, a form Save
	// never emits (canonicalized on first save).
	sd.add("case-insensitive-empty-partners", []byte(`{"pArtners":[]}`))
	sd.add("inflate-bomb", bomb.Bytes())
	// The canonical JSON behind another gzip level, and followed by a
	// second value: LoadCanonical must hand back every byte of the JSON
	// stream — what any member inflates to, and the bytes after a
	// plain value — for the collection daemon's canonical check to see.
	var fast bytes.Buffer
	zw, err := gzip.NewWriterLevel(&fast, gzip.BestSpeed)
	if err != nil {
		return err
	}
	if _, err := zw.Write(plain.Bytes()); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	sd.add("valid-gzip-bestspeed", fast.Bytes())
	sd.add("valid-json-trailing-bytes", append(bytes.Clone(plain.Bytes()), `{"host":"x"}`...))
	return sd.err
}
