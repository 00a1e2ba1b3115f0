package archive

import (
	"bytes"
	"testing"
)

// FuzzArchiveIndex feeds arbitrary bytes to the journal scanner — the
// on-disk form of the warehouse index — strict and crash-tolerant.
// Neither may panic, the tolerant scanner must accept at least
// everything the strict one does, and every record either accepts
// must re-encode as one journal line that decodes back.
func FuzzArchiveIndex(f *testing.F) {
	// Seed with the real shapes: journal lines as Ingest/GC write them,
	// the reduced index bytes IndexBytes serves (a JSON document that is
	// no journal), and the torn/corrupt variants the scanner exists to
	// classify. tools/gen also writes them under
	// testdata/fuzz/FuzzArchiveIndex.
	ing := JournalRecord{
		V: formatVersion, Op: OpIngest,
		Sum: "8f2e77aea6370000", Sig: "ee2180a7c9368aee",
		Title: "exception at app.mc:14 in average (app)",
		Host:  "prod-host", Process: "app", Reason: "exception SIGFPE",
		Time: 4242, Bytes: 512,
	}
	line1, err := encodeJournal(&ing)
	if err != nil {
		f.Fatal(err)
	}
	ing2 := ing
	ing2.Sum, ing2.Host, ing2.Time = "0880a607c3790000", "host-b", 9000
	line2, err := encodeJournal(&ing2)
	if err != nil {
		f.Fatal(err)
	}
	gc := JournalRecord{V: formatVersion, Op: OpGC, Removed: []string{ing.Sum}}
	line3, err := encodeJournal(&gc)
	if err != nil {
		f.Fatal(err)
	}
	journal := append(append(append([]byte(nil), line1...), line2...), line3...)
	f.Add(journal)
	f.Add(line1)
	// Torn tail: the crash-mid-append footprint.
	f.Add(journal[:len(journal)-7])
	idx, err := IndexBytesOf([]JournalRecord{ing, ing2, gc})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(idx)
	// Wrong version, unknown op, bare junk, empty.
	f.Add([]byte(`{"v":99,"op":"ingest","sum":"x","sig":"y"}` + "\n"))
	f.Add([]byte(`{"v":1,"op":"shred","sum":"x"}` + "\n"))
	f.Add([]byte(`{"v":1,"op":"gc"}` + "\n"))
	f.Add([]byte("not json\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		strict, serr := DecodeJournal(bytes.NewReader(data))
		tolerant, goodLen, torn, terr := decodeJournalLines(bytes.NewReader(data), true)
		if goodLen < 0 || goodLen > int64(len(data)) {
			t.Fatalf("goodLen %d outside input [0,%d]", goodLen, len(data))
		}
		if torn && goodLen < int64(len(data)) && data[goodLen] == '\n' {
			t.Fatalf("torn journal's good prefix %d stops before a newline", goodLen)
		}
		if serr == nil {
			if terr != nil {
				t.Fatalf("strict decode accepted what tolerant rejected: %v", terr)
			}
			if !torn && len(tolerant) != len(strict) {
				t.Fatalf("tolerant dropped %d records from an untorn journal", len(strict)-len(tolerant))
			}
		}
		for i := range tolerant {
			line, err := encodeJournal(&tolerant[i])
			if err != nil {
				t.Fatalf("accepted record %d fails to re-encode: %v", i, err)
			}
			back, err := DecodeJournal(bytes.NewReader(line))
			if err != nil || len(back) != 1 {
				t.Fatalf("re-encoded record %d fails to re-decode: %v", i, err)
			}
		}
	})
}
