package snap

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"traceback/internal/trace"
)

func sample() *Snap {
	s := &Snap{
		Host: "h", Process: "p", PID: 3, RuntimeID: 77,
		Reason: "exception SIGSEGV", TriggerTID: 1, Signal: 11, Time: 1000,
		Modules: []ModuleInfo{
			{Name: "app", Checksum: "aa", ActualDAGBase: 0, DAGCount: 5, CodeBase: 0, CodeLen: 100},
			{Name: "lib", Checksum: "bb", ActualDAGBase: 5, DAGCount: 3, CodeBase: 100, CodeLen: 50},
			{Name: "bad", Checksum: "cc", ActualDAGBase: 0, DAGCount: 9, BadDAG: true},
		},
	}
	var words []uint32
	// A realistic hot-loop buffer: the same DAG header re-recorded.
	for i := 0; i < 4000; i++ {
		words = append(words, trace.DAGWord(uint32(i%7), uint32(i%3)))
	}
	d := BufferDump{Kind: BufMain, OwnerTID: 1, LastPtr: uint32(len(words) - 1), LastKnown: true, SubWords: 1024}
	d.SetWords(words)
	s.Buffers = append(s.Buffers, d)
	return s
}

func TestSnapRoundTrip(t *testing.T) {
	s := sample()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.RuntimeID != 77 || got.Reason != s.Reason || len(got.Buffers) != 1 {
		t.Fatalf("got %+v", got)
	}
	w1 := s.Buffers[0].Words()
	w2 := got.Buffers[0].Words()
	if len(w1) != len(w2) {
		t.Fatal("buffer length changed")
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("word %d: %#x != %#x", i, w1[i], w2[i])
		}
	}
}

func TestModuleForDAG(t *testing.T) {
	s := sample()
	if mi, rel, ok := s.ModuleForDAG(6); !ok || mi.Name != "lib" || rel != 1 {
		t.Errorf("ModuleForDAG(6) = %v %d %v", mi.Name, rel, ok)
	}
	if _, _, ok := s.ModuleForDAG(100); ok {
		t.Error("out-of-range DAG resolved")
	}
	// Bad-DAG modules never match.
	if mi, _, ok := s.ModuleForDAG(2); !ok || mi.Name != "app" {
		t.Errorf("DAG 2 resolved to %v, want app (not the bad module)", mi.Name)
	}
}

func TestModuleForAddr(t *testing.T) {
	s := sample()
	if mi, ok := s.ModuleForAddr(120); !ok || mi.Name != "lib" {
		t.Errorf("ModuleForAddr(120) = %v %v", mi.Name, ok)
	}
	if _, ok := s.ModuleForAddr(99999); ok {
		t.Error("out-of-range address resolved")
	}
}

// TestCompressionFactor verifies the paper's claim that trace buffers
// compress by a factor of 10 or more.
func TestCompressionFactor(t *testing.T) {
	s := sample()
	var plain, comp bytes.Buffer
	if err := s.Save(&plain); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveCompressed(&comp); err != nil {
		t.Fatal(err)
	}
	factor := float64(plain.Len()) / float64(comp.Len())
	if factor < 10 {
		t.Errorf("compression factor = %.1fx, paper claims 10x+", factor)
	}
	got, err := LoadAuto(&comp)
	if err != nil {
		t.Fatal(err)
	}
	if got.RuntimeID != s.RuntimeID || len(got.Buffers) != len(s.Buffers) {
		t.Error("compressed snap did not round-trip")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadAuto(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
}

// Property: buffer word encoding round-trips arbitrary words.
func TestBufferWordsQuick(t *testing.T) {
	f := func(words []uint32) bool {
		var d BufferDump
		d.SetWords(words)
		got := d.Words()
		if len(got) != len(words) {
			return false
		}
		for i := range words {
			if got[i] != words[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBufferKindStrings(t *testing.T) {
	for k := BufMain; k <= BufDesperation; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
}
