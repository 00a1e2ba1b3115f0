// Package module defines the binary module format of the synthetic
// platform (the analog of a PE/ELF image with debug info) and the
// TraceBack mapfile emitted by instrumentation.
//
// A module carries code, initialized data, a function table, a source
// line table, an import table, and — once instrumented — the fixup
// tables that let the TraceBack runtime rebase DAG IDs and the TLS
// index at load time, plus an MD5 checksum over the stable content
// that ties trace data to the matching mapfile.
package module

import (
	"bytes"
	"crypto/md5"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"sort"

	"traceback/internal/isa"
)

// Func describes one function: a contiguous half-open instruction
// range [Entry, End).
type Func struct {
	Name     string
	Entry    uint32
	End      uint32
	Exported bool
}

// Import names a function provided by another module. CALX
// instructions index this table; the loader resolves each entry to an
// absolute code address.
type Import struct {
	Module string // "" means any module exporting Name
	Name   string
}

// LineEntry maps the instructions in [Index, next entry's Index) to a
// source position. Entries are sorted by Index.
type LineEntry struct {
	Index uint32
	File  uint16 // index into Files
	Line  uint32
}

// Global names a data-segment symbol (for the snap variables view).
type Global struct {
	Name string
	Off  uint32 // data-segment offset
	Size uint32 // element count (1 for scalars)
}

// Module is a loadable binary image.
type Module struct {
	Name    string
	Code    []isa.Instr
	Data    []byte
	BSS     uint32 // extra zeroed data appended after Data
	Funcs   []Func
	Imports []Import
	Globals []Global
	Files   []string
	Lines   []LineEntry

	// Instrumentation products.
	Instrumented bool
	DAGBase      uint32   // default (instrumentation-time) DAG ID base
	DAGCount     uint32   // number of DAG IDs the module uses
	DAGFixups    []uint32 // instruction indexes whose Imm embeds a pre-shifted DAG record
	TLSFixups    []uint32 // instruction indexes of probe TLSLD/TLSST to re-slot
}

// Checksum returns the MD5 of the module's stable content (code,
// data, function table) — the analog of the paper's module checksum
// that omits timestamps and other volatile fields.
func (m *Module) Checksum() [16]byte {
	h := md5.New()
	var buf [8]byte
	for _, in := range m.Code {
		h.Write(isa.Encode(buf[:0], in))
	}
	h.Write(m.Data)
	binary.Write(h, binary.LittleEndian, m.BSS)
	for _, f := range m.Funcs {
		io.WriteString(h, f.Name)
		binary.Write(h, binary.LittleEndian, f.Entry)
		binary.Write(h, binary.LittleEndian, f.End)
	}
	var sum [16]byte
	h.Sum(sum[:0])
	return sum
}

// ChecksumHex returns the checksum as a hex string (the mapfile key).
func (m *Module) ChecksumHex() string {
	s := m.Checksum()
	return hex.EncodeToString(s[:])
}

// FindFunc returns the function containing instruction index idx.
func (m *Module) FindFunc(idx uint32) (Func, bool) {
	for _, f := range m.Funcs {
		if idx >= f.Entry && idx < f.End {
			return f, true
		}
	}
	return Func{}, false
}

// FuncByName returns the named function.
func (m *Module) FuncByName(name string) (Func, bool) {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f, true
		}
	}
	return Func{}, false
}

// LineFor returns the source position of instruction idx.
func (m *Module) LineFor(idx uint32) (file string, line uint32, ok bool) {
	i := sort.Search(len(m.Lines), func(i int) bool { return m.Lines[i].Index > idx })
	if i == 0 {
		return "", 0, false
	}
	e := m.Lines[i-1]
	if int(e.File) >= len(m.Files) {
		return "", 0, false
	}
	return m.Files[e.File], e.Line, true
}

// Validate checks structural invariants.
func (m *Module) Validate() error {
	n := uint32(len(m.Code))
	for _, f := range m.Funcs {
		if f.Entry >= f.End || f.End > n {
			return fmt.Errorf("module %s: function %s has bad range [%d,%d) of %d",
				m.Name, f.Name, f.Entry, f.End, n)
		}
	}
	for i := 1; i < len(m.Lines); i++ {
		if m.Lines[i].Index < m.Lines[i-1].Index {
			return fmt.Errorf("module %s: line table not sorted at %d", m.Name, i)
		}
	}
	for _, e := range m.Lines {
		if int(e.File) >= len(m.Files) {
			return fmt.Errorf("module %s: line entry references file %d of %d",
				m.Name, e.File, len(m.Files))
		}
	}
	for i, in := range m.Code {
		var regs [6]uint8
		for _, r := range in.Writes(in.Reads(regs[:0])) {
			if r >= isa.NumRegs {
				return fmt.Errorf("module %s: instruction %d (%v) names register %d of %d",
					m.Name, i, in.Op, r, isa.NumRegs)
			}
		}
		if in.Op.HasCodeTarget() {
			if in.Imm < 0 || uint32(in.Imm) >= n {
				return fmt.Errorf("module %s: instruction %d (%v) targets %d outside code",
					m.Name, i, in.Op, in.Imm)
			}
		}
		if in.Op == isa.CALX {
			if in.Imm < 0 || int(in.Imm) >= len(m.Imports) {
				return fmt.Errorf("module %s: instruction %d imports entry %d of %d",
					m.Name, i, in.Imm, len(m.Imports))
			}
		}
		if in.Op == isa.LDFN {
			if in.Imm < 0 || int(in.Imm) >= len(m.Funcs) {
				return fmt.Errorf("module %s: instruction %d references function %d of %d",
					m.Name, i, in.Imm, len(m.Funcs))
			}
		}
	}
	for _, fx := range m.DAGFixups {
		if fx >= n || m.Code[fx].Op != isa.STI4 {
			return fmt.Errorf("module %s: DAG fixup %d does not point at STI4", m.Name, fx)
		}
	}
	for _, fx := range m.TLSFixups {
		if fx >= n || (m.Code[fx].Op != isa.TLSLD && m.Code[fx].Op != isa.TLSST) {
			return fmt.Errorf("module %s: TLS fixup %d does not point at a TLS op", m.Name, fx)
		}
	}
	return nil
}

const magic = "TBMOD1\x00\x00"

// WriteTo serializes the module.
func (m *Module) WriteTo(w io.Writer) (int64, error) {
	var buf bytes.Buffer
	buf.WriteString(magic)
	ws := func(s string) {
		binary.Write(&buf, binary.LittleEndian, uint32(len(s)))
		buf.WriteString(s)
	}
	w32 := func(v uint32) { binary.Write(&buf, binary.LittleEndian, v) }
	ws(m.Name)
	w32(uint32(len(m.Code)))
	for _, in := range m.Code {
		b := isa.Encode(nil, in)
		buf.Write(b)
	}
	w32(uint32(len(m.Data)))
	buf.Write(m.Data)
	w32(m.BSS)
	w32(uint32(len(m.Funcs)))
	for _, f := range m.Funcs {
		ws(f.Name)
		w32(f.Entry)
		w32(f.End)
		if f.Exported {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
	}
	w32(uint32(len(m.Imports)))
	for _, im := range m.Imports {
		ws(im.Module)
		ws(im.Name)
	}
	w32(uint32(len(m.Globals)))
	for _, gl := range m.Globals {
		ws(gl.Name)
		w32(gl.Off)
		w32(gl.Size)
	}
	w32(uint32(len(m.Files)))
	for _, f := range m.Files {
		ws(f)
	}
	w32(uint32(len(m.Lines)))
	for _, e := range m.Lines {
		w32(e.Index)
		w32(uint32(e.File))
		w32(e.Line)
	}
	if m.Instrumented {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	w32(m.DAGBase)
	w32(m.DAGCount)
	w32(uint32(len(m.DAGFixups)))
	for _, fx := range m.DAGFixups {
		w32(fx)
	}
	w32(uint32(len(m.TLSFixups)))
	for _, fx := range m.TLSFixups {
		w32(fx)
	}
	n, err := w.Write(buf.Bytes())
	return int64(n), err
}

// Read deserializes a module.
func Read(r io.Reader) (*Module, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("module: bad magic")
	}
	p := data[len(magic):]
	fail := func() (*Module, error) { return nil, fmt.Errorf("module: truncated") }
	r32 := func() (uint32, bool) {
		if len(p) < 4 {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(p)
		p = p[4:]
		return v, true
	}
	rs := func() (string, bool) {
		n, ok := r32()
		if !ok || uint32(len(p)) < n {
			return "", false
		}
		s := string(p[:n])
		p = p[n:]
		return s, true
	}
	m := &Module{}
	var ok bool
	if m.Name, ok = rs(); !ok {
		return fail()
	}
	ncode, ok := r32()
	if !ok || uint64(len(p)) < uint64(ncode)*isa.Size {
		return fail()
	}
	m.Code, err = isa.DecodeAll(p[:ncode*isa.Size])
	if err != nil {
		return nil, err
	}
	p = p[ncode*isa.Size:]
	ndata, ok := r32()
	if !ok || uint32(len(p)) < ndata {
		return fail()
	}
	m.Data = append([]byte(nil), p[:ndata]...)
	p = p[ndata:]
	if m.BSS, ok = r32(); !ok {
		return fail()
	}
	nf, ok := r32()
	if !ok {
		return fail()
	}
	for i := uint32(0); i < nf; i++ {
		var f Func
		if f.Name, ok = rs(); !ok {
			return fail()
		}
		if f.Entry, ok = r32(); !ok {
			return fail()
		}
		if f.End, ok = r32(); !ok {
			return fail()
		}
		if len(p) < 1 {
			return fail()
		}
		f.Exported = p[0] != 0
		p = p[1:]
		m.Funcs = append(m.Funcs, f)
	}
	ni, ok := r32()
	if !ok {
		return fail()
	}
	for i := uint32(0); i < ni; i++ {
		var im Import
		if im.Module, ok = rs(); !ok {
			return fail()
		}
		if im.Name, ok = rs(); !ok {
			return fail()
		}
		m.Imports = append(m.Imports, im)
	}
	ng, ok := r32()
	if !ok {
		return fail()
	}
	for i := uint32(0); i < ng; i++ {
		var gl Global
		if gl.Name, ok = rs(); !ok {
			return fail()
		}
		if gl.Off, ok = r32(); !ok {
			return fail()
		}
		if gl.Size, ok = r32(); !ok {
			return fail()
		}
		m.Globals = append(m.Globals, gl)
	}
	nfl, ok := r32()
	if !ok {
		return fail()
	}
	for i := uint32(0); i < nfl; i++ {
		s, ok := rs()
		if !ok {
			return fail()
		}
		m.Files = append(m.Files, s)
	}
	nl, ok := r32()
	if !ok {
		return fail()
	}
	for i := uint32(0); i < nl; i++ {
		var e LineEntry
		if e.Index, ok = r32(); !ok {
			return fail()
		}
		f, ok := r32()
		if !ok {
			return fail()
		}
		e.File = uint16(f)
		if e.Line, ok = r32(); !ok {
			return fail()
		}
		m.Lines = append(m.Lines, e)
	}
	if len(p) < 1 {
		return fail()
	}
	m.Instrumented = p[0] != 0
	p = p[1:]
	if m.DAGBase, ok = r32(); !ok {
		return fail()
	}
	if m.DAGCount, ok = r32(); !ok {
		return fail()
	}
	nfx, ok := r32()
	if !ok {
		return fail()
	}
	for i := uint32(0); i < nfx; i++ {
		v, ok := r32()
		if !ok {
			return fail()
		}
		m.DAGFixups = append(m.DAGFixups, v)
	}
	ntx, ok := r32()
	if !ok {
		return fail()
	}
	for i := uint32(0); i < ntx; i++ {
		v, ok := r32()
		if !ok {
			return fail()
		}
		m.TLSFixups = append(m.TLSFixups, v)
	}
	return m, m.Validate()
}
