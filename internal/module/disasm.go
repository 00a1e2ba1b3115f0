package module

import (
	"fmt"
	"io"
)

// Disasm writes a human-readable listing of the module: headers,
// function boundaries, source line annotations, and one instruction
// per line. Probe sequences in instrumented modules are visible as
// the tlsld/orm4 and call/sti4 idioms.
func Disasm(w io.Writer, m *Module) {
	fmt.Fprintf(w, "module %s  (%d instructions, %d data bytes, %d bss", m.Name, len(m.Code), len(m.Data), m.BSS)
	if m.Instrumented {
		fmt.Fprintf(w, "; instrumented: %d DAGs base %d", m.DAGCount, m.DAGBase)
	}
	fmt.Fprintf(w, ")\nchecksum %s\n", m.ChecksumHex())
	if len(m.Imports) > 0 {
		fmt.Fprintf(w, "imports:\n")
		for i, im := range m.Imports {
			fmt.Fprintf(w, "  [%d] %s!%s\n", i, im.Module, im.Name)
		}
	}

	fnAt := map[uint32]Func{}
	for _, f := range m.Funcs {
		fnAt[f.Entry] = f
	}
	dagFix := map[uint32]bool{}
	for _, fx := range m.DAGFixups {
		dagFix[fx] = true
	}
	tlsFix := map[uint32]bool{}
	for _, fx := range m.TLSFixups {
		tlsFix[fx] = true
	}

	lastLine := uint32(0)
	lastFile := ""
	for i, in := range m.Code {
		if f, ok := fnAt[uint32(i)]; ok {
			exp := ""
			if f.Exported {
				exp = " (exported)"
			}
			fmt.Fprintf(w, "\n%s:%s\n", f.Name, exp)
		}
		if file, line, ok := m.LineFor(uint32(i)); ok && (line != lastLine || file != lastFile) {
			fmt.Fprintf(w, "  ; %s:%d\n", file, line)
			lastLine, lastFile = line, file
		}
		tag := ""
		if dagFix[uint32(i)] {
			tag = "   ; DAG fixup"
		} else if tlsFix[uint32(i)] {
			tag = "   ; TLS fixup"
		}
		fmt.Fprintf(w, "  %5d: %s%s\n", i, in, tag)
	}
}
