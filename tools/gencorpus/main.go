package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"traceback/internal/snap"
	"traceback/internal/trace"
)

func write(dir, name string, data []byte) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(err)
	}
	content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		panic(err)
	}
	fmt.Println(filepath.Join(dir, name))
}

func wordsToBytes(ws []uint32) []byte {
	out := make([]byte, len(ws)*4)
	for i, w := range ws {
		binary.LittleEndian.PutUint32(out[i*4:], w)
	}
	return out
}

func main() {
	root := os.Args[1]

	tdir := filepath.Join(root, "internal/trace/testdata/fuzz/FuzzTraceRecordDecode")
	var ws []uint32
	ws = append(ws, trace.DAGWord(7, 0b1011))
	ws = trace.AppendTimestamp(ws, 0x1122334455667788)
	ws = append(ws, trace.DAGWord(9, 0))
	ws = trace.AppendSync(ws, trace.Sync{Point: trace.SyncCallSend, RuntimeID: 0xdead, LogicalThread: 3, Seq: 1, TS: 42})
	ws = trace.AppendThreadStart(ws, 1, 100)
	write(tdir, "wellformed-stream", wordsToBytes(ws))
	write(tdir, "torn-stream", wordsToBytes(ws[3:]))
	write(tdir, "sentinels", wordsToBytes([]uint32{trace.Invalid, trace.Sentinel, trace.DAGWord(1, 1), trace.Sentinel}))
	write(tdir, "kind-zero-trailer", wordsToBytes([]uint32{0x00020000, 0x7F020000}))
	write(tdir, "kind-7f-trailer", wordsToBytes([]uint32{0x7F020000, 0x7F02007F}))
	var exc []uint32
	exc = trace.AppendException(exc, trace.Exception{Code: 8, Addr: 0x401000, TS: 999})
	write(tdir, "exception", wordsToBytes(exc))
	write(tdir, "unaligned", []byte{0x7f, 0x02, 0x00})
	write(tdir, "bad-dag", wordsToBytes([]uint32{trace.DAGWord(trace.BadDAGID, 0x3FF)}))

	sdir := filepath.Join(root, "internal/snap/testdata/fuzz/FuzzSnapReader")
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
	var plain bytes.Buffer
	if err := valid.Save(&plain); err != nil {
		panic(err)
	}
	write(sdir, "valid-json", plain.Bytes())
	var zipped bytes.Buffer
	if err := valid.SaveCompressed(&zipped); err != nil {
		panic(err)
	}
	write(sdir, "valid-gzip", zipped.Bytes())
	write(sdir, "truncated-gzip", zipped.Bytes()[:len(zipped.Bytes())/2])
	write(sdir, "bare-gzip-magic", []byte{0x1f, 0x8b})
	var junkz bytes.Buffer
	zw := gzip.NewWriter(&junkz)
	zw.Write([]byte("not json"))
	zw.Close()
	write(sdir, "gzip-non-json", junkz.Bytes())
	write(sdir, "open-brace", []byte("{"))
	write(sdir, "empty-object", []byte("{}"))
	write(sdir, "raw-buffer", []byte(`{"buffers":[{"raw":"AAAA"}]}`))
	write(sdir, "empty", []byte{})
	// Fuzzer-found: case-insensitive JSON field matching can populate
	// an omitempty slice with a present-but-empty value, a form Save
	// never emits (canonicalized on first save).
	write(sdir, "case-insensitive-empty-partners", []byte(`{"pArtners":[]}`))
	// Decompression bomb: an empty snap padded with whitespace to one
	// byte past snap.MaxInflatedBytes. LoadAuto must refuse it
	// (snap.ErrTooLarge) without materializing the padding.
	var bomb bytes.Buffer
	if err := snap.WriteGzip(&bomb, append([]byte("{}"), bytes.Repeat([]byte(" "), snap.MaxInflatedBytes-1)...)); err != nil {
		panic(err)
	}
	write(sdir, "inflate-bomb", bomb.Bytes())
}
