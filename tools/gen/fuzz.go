package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"path/filepath"

	"traceback/internal/archive"
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
// passes through, FuzzTraceRecordDecode and FuzzSnapReader, and of the
// warehouse's journal scanner, FuzzArchiveIndex.
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
			CodeBase: 0x1000, CodeLen: 64, DataDump: []byte{1, 2, 3},
		}},
		Buffers: []snap.BufferDump{{
			Kind: snap.BufMain, OwnerTID: 1, LastPtr: 3, LastKnown: true,
			SubWords: 4, Raw: []byte{0xAA, 0, 0, 0x80, 0xFF, 0xFF, 0xFF, 0xFF},
		}},
	}
	var plain, zipped bytes.Buffer
	if err := valid.Save(&plain); err != nil {
		return err
	}
	if err := valid.SaveCompressed(&zipped); err != nil {
		return err
	}
	// Decompression bomb: an empty snap padded with whitespace to one
	// byte past snap.MaxInflatedBytes. LoadAuto must refuse it
	// (snap.ErrTooLarge) without materializing the padding.
	bomb := gzipped(gzip.BestCompression, append([]byte("{}"), bytes.Repeat([]byte(" "), snap.MaxInflatedBytes-1)...))
	// A snap file is one gzip member, so every JSON-shaped seed is
	// wrapped in one: a plain seed would stop at the gzip check and
	// never reach the JSON decoder. "open-brace" stays plain, the one
	// seed of that refusal.
	sd.add("valid-json", gzipped(gzip.DefaultCompression, plain.Bytes()))
	sd.add("valid-gzip", zipped.Bytes())
	sd.add("truncated-gzip", zipped.Bytes()[:zipped.Len()/2])
	sd.add("bare-gzip-magic", []byte{0x1f, 0x8b})
	sd.add("gzip-non-json", gzipped(gzip.BestCompression, []byte("not json")))
	sd.add("open-brace", []byte("{"))
	sd.add("empty-object", gzipped(gzip.BestCompression, []byte("{}")))
	sd.add("raw-buffer", gzipped(gzip.BestCompression, []byte(`{"buffers":[{"raw":"AAAA"}]}`)))
	sd.add("empty", []byte{})
	// Fuzzer-found: case-insensitive JSON field matching can populate
	// an omitempty slice with a present-but-empty value, a form Save
	// never emits (canonicalized on first save).
	sd.add("case-insensitive-empty-datadump", gzipped(gzip.BestCompression, []byte(`{"modules":[{"dAtaDump":""}]}`)))
	sd.add("inflate-bomb", bomb)
	// The canonical JSON behind another gzip level, and followed by a
	// second value in the same member: LoadCanonical must hand back
	// every byte the member inflates to for the collection daemon's
	// canonical check to see.
	sd.add("valid-gzip-bestspeed", gzipped(gzip.BestSpeed, plain.Bytes()))
	sd.add("valid-json-trailing-bytes", gzipped(gzip.BestCompression, append(bytes.Clone(plain.Bytes()), `{"host":"x"}`...)))
	// A recorded snap: the nondet section holds one record of every
	// kind, so the fuzzer reaches recordings through the snap decoder.
	recorded := *valid
	recorded.Nondet = &snap.NondetLog{V: 2, Scenario: "crossmachine", Trial: true, Events: []trace.NondetRecord{
		{Kind: trace.NDQuantum, Quantum: 1, PID: 1, TID: 1, Clock: 64},
		{Kind: trace.NDSignal, Quantum: 90, Machine: 1, PID: 2, TID: 3, Sig: 30, PC: 0x1122334455, Clock: 7788},
		{Kind: trace.NDKill, Quantum: 120, PID: 1, Clock: 9999},
		{Kind: trace.NDUnload, Quantum: 44, PID: 1, Index: 2, Clock: 500},
		{Kind: trace.NDRPCFault, Quantum: 8, Machine: 1, PID: 2, TID: 1, Endpoint: 9, Index: 4, Flags: trace.NDFReply | trace.NDFDup, Delay: 5000},
		{Kind: trace.NDRPCDeliver, Quantum: 9, PID: 1, TID: 2, PID2: 2, TID2: 1, Endpoint: 9, Len: 128, Clock: 1 << 40},
		{Kind: trace.NDManaged, Quantum: 1000, TID: 2, Sig: 107},
	}}
	var rec bytes.Buffer
	if err := recorded.Save(&rec); err != nil {
		return err
	}
	sd.add("nondet-every-kind", gzipped(gzip.BestCompression, rec.Bytes()))
	if sd.err != nil {
		return sd.err
	}

	// Journal lines as Ingest and GC write them, the index bytes they
	// reduce to, and the torn and corrupt variants the scanner exists
	// to classify.
	jd := &seedDir{dir: filepath.Join(root, "internal", "archive", "testdata", "fuzz", "FuzzArchiveIndex")}
	ing := archive.JournalRecord{
		V: 1, Op: archive.OpIngest,
		Sum: "8f2e77aea6370000", Sig: "ee2180a7c9368aee",
		Title: "exception at app.mc:14 in average (app)",
		Host:  "prod-host", Process: "app", Reason: "exception SIGFPE",
		Time: 4242, Bytes: 512,
	}
	ing2 := ing
	ing2.Sum, ing2.Host, ing2.Time = "0880a607c3790000", "host-b", 9000
	gc := archive.JournalRecord{V: 1, Op: archive.OpGC, Removed: []string{ing.Sum}}
	recs := []archive.JournalRecord{ing, ing2, gc}
	var journal []byte
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		journal = append(append(journal, line...), '\n')
	}
	jd.add("seed-journal", journal)
	jd.add("seed-one-line", journal[:bytes.IndexByte(journal, '\n')+1])
	jd.add("seed-torn-tail", journal[:len(journal)-7])
	idx, err := archive.IndexBytesOf(recs)
	if err != nil {
		return err
	}
	jd.add("seed-index", idx)
	jd.add("seed-bad-version", []byte(`{"v":99,"op":"ingest","sum":"x","sig":"y"}`+"\n"))
	jd.add("seed-bad-op", []byte(`{"v":1,"op":"shred","sum":"x"}`+"\n"))
	jd.add("seed-empty-gc", []byte(`{"v":1,"op":"gc"}`+"\n"))
	return jd.err
}

// gzipped is data as one gzip member at the given level.
func gzipped(level int, data []byte) []byte {
	var buf bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&buf, level) // err only for a bad level
	zw.Write(data)
	zw.Close()
	return buf.Bytes()
}
