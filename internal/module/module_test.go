package module

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"traceback/internal/isa"
)

func sample() *Module {
	return &Module{
		Name: "app",
		Code: []isa.Instr{
			{Op: isa.MOVI, A: 1, Imm: 7},
			{Op: isa.CALL, Imm: 3},
			{Op: isa.SYS, Imm: 1},
			{Op: isa.ADDI, A: 0, B: 1, Imm: 1},
			{Op: isa.RET},
		},
		Data:    []byte{1, 2, 3, 4},
		BSS:     16,
		Funcs:   []Func{{Name: "main", Entry: 0, End: 3, Exported: true}, {Name: "inc", Entry: 3, End: 5}},
		Imports: []Import{{Module: "lib", Name: "helper"}},
		Files:   []string{"app.mc"},
		Lines: []LineEntry{
			{Index: 0, File: 0, Line: 1},
			{Index: 1, File: 0, Line: 2},
			{Index: 3, File: 0, Line: 5},
		},
	}
}

func TestModuleRoundTrip(t *testing.T) {
	m := sample()
	m.Instrumented = true
	m.DAGBase = 100
	m.DAGCount = 2
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != m.Name || len(got.Code) != len(m.Code) || got.BSS != m.BSS {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range m.Code {
		if got.Code[i] != m.Code[i] {
			t.Errorf("code[%d] = %v, want %v", i, got.Code[i], m.Code[i])
		}
	}
	if !bytes.Equal(got.Data, m.Data) {
		t.Error("data mismatch")
	}
	if len(got.Funcs) != 2 || got.Funcs[0].Name != "main" || !got.Funcs[0].Exported {
		t.Errorf("funcs = %+v", got.Funcs)
	}
	if len(got.Imports) != 1 || got.Imports[0].Name != "helper" {
		t.Errorf("imports = %+v", got.Imports)
	}
	if got.Checksum() != m.Checksum() {
		t.Error("checksum changed across serialization")
	}
	if !got.Instrumented || got.DAGBase != 100 || got.DAGCount != 2 {
		t.Errorf("instrumentation fields lost: %+v", got)
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := Read(strings.NewReader("not a module")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := sample().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every strict prefix must be rejected, never panic.
	for n := 0; n < len(full); n += 7 {
		if _, err := Read(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("prefix of %d bytes accepted", n)
		}
	}
}

func TestChecksumIgnoresDebugInfo(t *testing.T) {
	a, b := sample(), sample()
	b.Lines = nil
	b.Files = nil
	if a.Checksum() != b.Checksum() {
		t.Error("checksum should cover only stable content, not debug info")
	}
	b = sample()
	b.Code[0].Imm = 8
	if a.Checksum() == b.Checksum() {
		t.Error("checksum must change when code changes")
	}
}

func TestLineFor(t *testing.T) {
	m := sample()
	cases := []struct {
		idx  uint32
		line uint32
		ok   bool
	}{
		{0, 1, true},
		{1, 2, true},
		{2, 2, true},
		{3, 5, true},
		{4, 5, true},
	}
	for _, c := range cases {
		_, line, ok := m.LineFor(c.idx)
		if ok != c.ok || line != c.line {
			t.Errorf("LineFor(%d) = %d,%v want %d,%v", c.idx, line, ok, c.line, c.ok)
		}
	}
}

func TestFindFunc(t *testing.T) {
	m := sample()
	if f, ok := m.FindFunc(4); !ok || f.Name != "inc" {
		t.Errorf("FindFunc(4) = %+v, %v", f, ok)
	}
	if _, ok := m.FindFunc(99); ok {
		t.Error("FindFunc out of range succeeded")
	}
	if f, ok := m.FuncByName("main"); !ok || f.Entry != 0 {
		t.Errorf("FuncByName(main) = %+v, %v", f, ok)
	}
}

func TestValidateCatchesBadFuncRange(t *testing.T) {
	m := sample()
	m.Funcs[0].End = 99
	if err := m.Validate(); err == nil {
		t.Error("bad function range passed validation")
	}
}

func TestValidateCatchesBadBranchTarget(t *testing.T) {
	m := sample()
	m.Code[1].Imm = 1000
	if err := m.Validate(); err == nil {
		t.Error("out-of-range call target passed validation")
	}
}

// TestValidateCatchesBadRegister: a register field past the register
// file would index out of range in every analysis and in the VM, so a
// loaded module carrying one is refused.
func TestValidateCatchesBadRegister(t *testing.T) {
	m := sample()
	m.Code[0] = isa.Instr{Op: isa.MOV, A: isa.NumRegs + 4, B: 1}
	if err := m.Validate(); err == nil {
		t.Error("out-of-range register passed validation")
	}
}

func TestValidateCatchesUnsortedLines(t *testing.T) {
	m := sample()
	m.Lines[0].Index = 2
	if err := m.Validate(); err == nil {
		t.Error("unsorted line table passed validation")
	}
}

func TestMapFileRoundTrip(t *testing.T) {
	mf := &MapFile{
		ModuleName: "app",
		Checksum:   "00112233445566778899aabbccddeeff",
		DAGBase:    100,
		DAGCount:   1,
		DAGs: []MapDAG{{
			ID: 0,
			Blocks: []MapBlock{
				{Start: 0, End: 4, Bit: -1, Succs: []int{1, 2},
					Lines:     []LineSpan{{File: "a.mc", Line: 1, Start: 0, End: 4}},
					FuncEntry: "main"},
				{Start: 4, End: 6, Bit: 0, Succs: []int{2},
					Lines: []LineSpan{{File: "a.mc", Line: 2, Start: 4, End: 6}}},
				{Start: 6, End: 8, Bit: 1, FuncExit: true,
					Lines: []LineSpan{{File: "a.mc", Line: 3, Start: 6, End: 8}}},
			},
		}},
	}
	path := filepath.Join(t.TempDir(), "app.map.json")
	if err := WriteMapFile(path, mf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMapFile(path); err == nil || !strings.Contains(err.Error(), path) {
		t.Errorf("ReadMapFile of a torn mapfile: %v, want an error naming %s", err, path)
	}
	if got.ModuleName != "app" || got.DAGCount != 1 || len(got.DAGs) != 1 {
		t.Fatalf("got %+v", got)
	}
	d, ok := got.DAGByID(0)
	if !ok || len(d.Blocks) != 3 {
		t.Fatalf("DAGByID(0) = %+v, %v", d, ok)
	}
	if d.Blocks[0].FuncEntry != "main" || !d.Blocks[2].FuncExit {
		t.Error("annotations lost")
	}
}

func TestMapFileValidateRejectsDuplicateBits(t *testing.T) {
	mf := &MapFile{
		ModuleName: "x", DAGCount: 1,
		DAGs: []MapDAG{{Blocks: []MapBlock{
			{Start: 0, End: 1, Bit: 0},
			{Start: 1, End: 2, Bit: 0},
		}}},
	}
	if err := mf.Validate(); err == nil {
		t.Error("duplicate bit assignment passed validation")
	}
}

func TestMapFileValidateRejectsBadSuccessor(t *testing.T) {
	mf := &MapFile{
		ModuleName: "x", DAGCount: 1,
		DAGs: []MapDAG{{Blocks: []MapBlock{
			{Start: 0, End: 1, Bit: -1, Succs: []int{5}},
		}}},
	}
	if err := mf.Validate(); err == nil {
		t.Error("dangling successor passed validation")
	}
}

// validMap builds a minimal mapfile that passes Validate, for the
// rejection tests to mutate.
func validMap() *MapFile {
	return &MapFile{
		ModuleName: "x", DAGCount: 2,
		DAGs: []MapDAG{
			{ID: 0, Blocks: []MapBlock{
				{Start: 0, End: 2, Bit: -1, Succs: []int{1}},
				{Start: 2, End: 4, Bit: 0},
			}},
			{ID: 1, Blocks: []MapBlock{
				{Start: 4, End: 6, Bit: -1},
			}},
		},
	}
}

func TestMapFileValidateRejectsDuplicateDAGIDs(t *testing.T) {
	mf := validMap()
	if err := mf.Validate(); err != nil {
		t.Fatalf("base map invalid: %v", err)
	}
	mf.DAGs[1].ID = 0
	if err := mf.Validate(); err == nil {
		t.Error("duplicate DAG IDs passed validation")
	}
}

func TestMapFileValidateRejectsOutOfRangeDAGID(t *testing.T) {
	mf := validMap()
	mf.DAGs[1].ID = 7 // >= DAGCount
	if err := mf.Validate(); err == nil {
		t.Error("DAG ID beyond DAGCount passed validation")
	}
}

func TestMapFileValidateRejectsSelfSuccessor(t *testing.T) {
	mf := validMap()
	mf.DAGs[0].Blocks[1].Succs = []int{1}
	if err := mf.Validate(); err == nil {
		t.Error("self-edge successor passed validation")
	}
}

func TestMapFileValidateRejectsDuplicateSuccessor(t *testing.T) {
	mf := validMap()
	mf.DAGs[0].Blocks[0].Succs = []int{1, 1}
	if err := mf.Validate(); err == nil {
		t.Error("duplicate successor passed validation")
	}
}

func TestMapFileValidateRejectsOversizedBit(t *testing.T) {
	mf := validMap()
	mf.DAGs[0].Blocks[1].Bit = 10 // == trace.NumPathBits, one past the last slot
	if err := mf.Validate(); err == nil {
		t.Error("bit beyond the record's path-bit capacity passed validation")
	}
}

func TestMapFileValidateRejectsEscapingLineSpan(t *testing.T) {
	mf := validMap()
	mf.DAGs[0].Blocks[0].Lines = []LineSpan{{File: "a.mc", Line: 1, Start: 1, End: 3}}
	if err := mf.Validate(); err == nil {
		t.Error("line span extending past its block passed validation")
	}
	mf.DAGs[0].Blocks[0].Lines = []LineSpan{{File: "a.mc", Line: 1, Start: 1, End: 1}}
	if err := mf.Validate(); err == nil {
		t.Error("empty line span passed validation")
	}
}

// TestLoadMapFileRejectsOtherJSON: any JSON object decodes into a
// MapFile, so a document naming no module — a snap file, say — must
// be refused rather than read as an empty map.
func TestLoadMapFileRejectsOtherJSON(t *testing.T) {
	_, err := LoadMapFile(strings.NewReader(`{"process":"app","reason":"SIGFPE","buffers":[]}`))
	if err == nil || !strings.Contains(err.Error(), "names no module") {
		t.Errorf("LoadMapFile of a snap document: %v, want a names-no-module error", err)
	}
	mf := validMap()
	mf.ModuleName = ""
	if err := mf.Validate(); err == nil {
		t.Error("mapfile without a module name passed validation")
	}
}

func TestDAGBaseFileRoundTrip(t *testing.T) {
	d := &DAGBaseFile{Bases: map[string]uint32{"app": 0, "lib": 4096}}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDAGBases(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Bases["lib"] != 4096 {
		t.Errorf("bases = %v", got.Bases)
	}
}

// Property: serialization round-trips arbitrary (valid) modules.
func TestModuleRoundTripQuick(t *testing.T) {
	f := func(name string, data []byte, bss uint32, nops uint8) bool {
		m := &Module{Name: name, Data: data, BSS: bss % 4096}
		for i := 0; i < int(nops%32)+1; i++ {
			m.Code = append(m.Code, isa.Instr{Op: isa.NOP})
		}
		m.Funcs = []Func{{Name: "f", Entry: 0, End: uint32(len(m.Code))}}
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return got.Name == m.Name && bytes.Equal(got.Data, m.Data) &&
			got.BSS == m.BSS && len(got.Code) == len(m.Code) &&
			got.Checksum() == m.Checksum()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalsRoundTrip(t *testing.T) {
	m := sample()
	m.Globals = []Global{{Name: "counter", Off: 0, Size: 1}, {Name: "table", Off: 8, Size: 16}}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Globals) != 2 || got.Globals[1].Name != "table" || got.Globals[1].Size != 16 {
		t.Errorf("globals = %+v", got.Globals)
	}
}

func TestDisasmOutput(t *testing.T) {
	m := sample()
	var buf bytes.Buffer
	Disasm(&buf, m)
	out := buf.String()
	for _, want := range []string{"module app", "main:", "inc:", "app.mc:1", "call @3"} {
		if !strings.Contains(out, want) {
			t.Errorf("disasm missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := DisasmFunc(&buf, m, "inc"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "addi") {
		t.Errorf("func disasm: %s", buf.String())
	}
	if err := DisasmFunc(&buf, m, "nope"); err == nil {
		t.Error("missing function accepted")
	}
}
