// Package seed builds the negative corpus for the verifier: a known
// clean instrumented module plus one deliberately broken variant per
// defect class, each tagged with the pass that must flag it. The
// corpus is both recall-tested (internal/verify's corpus_test) and
// exported to testdata by `tools/gen broken` so tbcheck -broken can run
// over it in make check.
package seed

import (
	"fmt"

	"traceback/internal/cfg"
	"traceback/internal/core"
	"traceback/internal/isa"
	"traceback/internal/minic"
	"traceback/internal/module"
	"traceback/internal/trace"
)

// baseSrc has the shapes the mutations need: if/else diamonds (bit
// assignment, multi-successor blocks), a loop (cycle cutting), and
// calls (return-point headers).
const baseSrc = `int total;
int scale(int v) {
	if (v > 10) {
		v = v - 10;
	} else {
		v = v + 3;
	}
	if (v % 2 == 0) {
		v = v * 2;
	}
	return v;
}
int main() {
	int i = 0;
	while (i < 6) {
		total = total + scale(i * 7);
		i = i + 1;
	}
	print_int(total);
	exit(0);
}`

// Case is one corpus entry: a module/mapfile pair and the verifier
// pass that must report at least one error-level diagnostic for it.
// Pass is empty for the clean baseline.
type Case struct {
	Name   string
	Pass   string // verify pass name expected to flag it; "" = clean
	Desc   string
	Module *module.Module
	Map    *module.MapFile
}

// Base compiles and instruments the baseline program.
func Base() (*module.Module, *module.MapFile, error) {
	mod, err := minic.Compile("seedapp", "seedapp.mc", baseSrc)
	if err != nil {
		return nil, nil, err
	}
	res, err := core.Instrument(mod, core.Options{})
	if err != nil {
		return nil, nil, err
	}
	return res.Module, res.Map, nil
}

// Cases builds the full corpus. Each broken case starts from a fresh
// Base() build so mutations never interact.
func Cases() ([]Case, error) {
	mutations := []struct {
		name, pass, desc string
		apply            func(*module.Module, *module.MapFile) error
	}{
		{"clean", "", "unmutated baseline; must verify with zero errors", func(*module.Module, *module.MapFile) error { return nil }},
		{"missing-probe", "probe-coverage",
			"a lightweight probe NOPed out of the code; its block's executions vanish from the trace", missingProbe},
		{"clobbering-probe", "probe-safety",
			"a lightweight probe retargeted onto a register that is live at its resume point", clobberingProbe},
		{"dangling-dag-edge", "map-consistency",
			"a mapfile DAG edge with no corresponding CFG edge; expansion could walk an impossible path", danglingEdge},
		{"ambiguous-encoding", "decodability",
			"DAG ID window rebased past MaxDAGID; top records collide with Sentinel/BadDAGID encodings", ambiguousEncoding},
		{"misaligned-map-block", "map-consistency",
			"a map block End shrunk by one instruction; line attribution uses the wrong code range", misalignedBlock},
		{"missing-bit", "decodability",
			"a branch target's path bit cleared in the mapfile; expansion cannot see that branch taken", missingBit},
	}
	out := make([]Case, 0, len(mutations))
	for _, mut := range mutations {
		m, mf, err := Base()
		if err != nil {
			return nil, err
		}
		if err := mut.apply(m, mf); err != nil {
			return nil, fmt.Errorf("seed case %s: %w", mut.name, err)
		}
		out = append(out, Case{Name: mut.name, Pass: mut.pass, Desc: mut.desc, Module: m, Map: mf})
	}
	return out, nil
}

// findLightProbe locates a no-spill lightweight probe: TLSLD rS
// followed by ORM4 rS, outside the helper, not preceded by a PUSH.
func findLightProbe(m *module.Module) (uint32, error) {
	helper, ok := m.FuncByName(core.HelperName)
	if !ok {
		return 0, fmt.Errorf("no probe helper")
	}
	for i := 0; i+1 < len(m.Code); i++ {
		if uint32(i) >= helper.Entry {
			break
		}
		if m.Code[i].Op == isa.TLSLD && m.Code[i+1].Op == isa.ORM4 &&
			m.Code[i].A == m.Code[i+1].A &&
			(i == 0 || m.Code[i-1].Op != isa.PUSH) {
			return uint32(i), nil
		}
	}
	return 0, fmt.Errorf("no no-spill lightweight probe found")
}

func missingProbe(m *module.Module, mf *module.MapFile) error {
	i, err := findLightProbe(m)
	if err != nil {
		return err
	}
	m.Code[i] = isa.Instr{Op: isa.NOP}
	m.Code[i+1] = isa.Instr{Op: isa.NOP}
	fixups := m.TLSFixups[:0]
	for _, fx := range m.TLSFixups {
		if fx != i {
			fixups = append(fixups, fx)
		}
	}
	m.TLSFixups = fixups
	mf.Checksum = m.ChecksumHex()
	return nil
}

func clobberingProbe(m *module.Module, mf *module.MapFile) error {
	helper, _ := m.FuncByName(core.HelperName)
	for i := 0; i+2 < int(helper.Entry); i++ {
		if m.Code[i].Op != isa.TLSLD || m.Code[i+1].Op != isa.ORM4 ||
			m.Code[i].A != m.Code[i+1].A ||
			(i > 0 && m.Code[i-1].Op == isa.PUSH) {
			continue
		}
		// The instruction at the probe's resume point reads its uses,
		// so any of them is live there; retargeting the scratch onto
		// one clobbers the program.
		uses, _ := cfg.InstrEffect(m.Code[i+2])
		for r := uint8(0); r < isa.FP; r++ {
			if !uses.Has(r) || r == m.Code[i].A {
				continue
			}
			m.Code[i].A = r
			m.Code[i+1].A = r
			mf.Checksum = m.ChecksumHex()
			return nil
		}
	}
	return fmt.Errorf("no probe with a live register at its resume point found")
}

func danglingEdge(m *module.Module, mf *module.MapFile) error {
	for di := range mf.DAGs {
		d := &mf.DAGs[di]
		for a := range d.Blocks {
			have := map[int]bool{}
			for _, s := range d.Blocks[a].Succs {
				have[s] = true
			}
			for b := a + 1; b < len(d.Blocks); b++ {
				if have[b] || b == 0 {
					continue
				}
				// Map edges mirror the CFG exactly on a clean build, so
				// an absent map edge is an absent CFG edge: adding it
				// dangles.
				succs := append(d.Blocks[a].Succs, b)
				for i := len(succs) - 1; i > 0 && succs[i] < succs[i-1]; i-- {
					succs[i], succs[i-1] = succs[i-1], succs[i]
				}
				d.Blocks[a].Succs = succs
				return nil
			}
		}
	}
	return fmt.Errorf("no DAG block pair without an edge found")
}

func ambiguousEncoding(m *module.Module, mf *module.MapFile) error {
	if m.DAGCount < 2 {
		return fmt.Errorf("need at least 2 DAGs")
	}
	// Rebase so the window's top ID lands one past MaxDAGID, colliding
	// with the reserved encodings.
	oldBase := m.DAGBase
	newBase := trace.MaxDAGID - m.DAGCount + 2
	for _, fx := range m.DAGFixups {
		in := &m.Code[fx]
		if in.Op != isa.STI4 {
			return fmt.Errorf("DAG fixup %d is not an STI4", fx)
		}
		local := trace.DAGID(trace.Word(in.Imm)) - oldBase
		in.Imm = int32(trace.DAGWord(newBase+local, 0))
	}
	m.DAGBase = newBase
	mf.DAGBase = newBase
	mf.Checksum = m.ChecksumHex()
	return nil
}

func misalignedBlock(m *module.Module, mf *module.MapFile) error {
	for di := range mf.DAGs {
		d := &mf.DAGs[di]
		for bi := range d.Blocks {
			mb := &d.Blocks[bi]
			if mb.End-mb.Start < 2 {
				continue
			}
			mb.End--
			spans := mb.Lines[:0]
			for _, sp := range mb.Lines {
				if sp.End > mb.End {
					sp.End = mb.End
				}
				if sp.Start < sp.End {
					spans = append(spans, sp)
				}
			}
			mb.Lines = spans
			return nil
		}
	}
	return fmt.Errorf("no multi-instruction map block found")
}

func missingBit(m *module.Module, mf *module.MapFile) error {
	for di := range mf.DAGs {
		d := &mf.DAGs[di]
		for a := range d.Blocks {
			if len(d.Blocks[a].Succs) < 2 {
				continue
			}
			for _, b := range d.Blocks[a].Succs {
				if d.Blocks[b].Bit >= 0 {
					d.Blocks[b].Bit = -1
					return nil
				}
			}
		}
	}
	return fmt.Errorf("no bit-carrying branch target found")
}
