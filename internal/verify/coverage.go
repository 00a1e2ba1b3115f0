package verify

import (
	"traceback/internal/isa"
)

// coverage is the probe-coverage pass: every block that must carry a
// probe does (and with the right weight), no block carries one it
// should not, and the paper's mandatory header placements hold. A
// missing probe silently drops control flow from the trace — the
// reconstructed path walks past blocks that never report — so every
// finding here is error-level.
func (ctx *context) coverage() {
	ctx.strayProbeScan()
	for _, fi := range ctx.funcs {
		ctx.coveragePlacement(fi)
	}
	if ctx.mf != nil {
		ctx.coverageMap()
	}
}

// strayProbeScan flags probe-only opcodes (STI4/ORM4/TLSLD/TLSST) and
// helper calls that are not part of a well-formed probe sequence at a
// block head. Compilers never emit these ops, so a stray one means
// the probe around it was damaged (partially overwritten, split by a
// bad relayout, or a branch target landing mid-probe).
func (ctx *context) strayProbeScan() {
	for i, in := range ctx.m.Code {
		idx := uint32(i)
		if ctx.inHelper(idx) {
			continue
		}
		if isProbeOp(in.Op) {
			if _, ok := ctx.probeSpanContaining(idx); !ok {
				ctx.errorf(PassCoverage, -1, i,
					"probe instruction %v outside any well-formed probe sequence", in)
			}
			continue
		}
		if in.Op == isa.CALL && ctx.hasHelper && uint32(in.Imm) == ctx.helper.Entry {
			if p, ok := ctx.probeSpanContaining(idx); !ok || p.kind != probeHeavy {
				ctx.errorf(PassCoverage, -1, i,
					"call to the probe helper outside a heavyweight probe sequence")
			}
		}
	}
}

// coveragePlacement checks the structural header rules of paper
// §2.1–§2.2 against the parsed probes, independent of the mapfile:
// function entries, call return points, and multiway-branch targets
// hold heavyweight probes; every reachable cycle contains one;
// jump-table slots and unreachable blocks hold none.
func (ctx *context) coveragePlacement(fi *fnInfo) {
	g := fi.g
	heavyAt := func(id int) bool {
		p, ok := fi.probes[g.Blocks[id].Start]
		return ok && p.kind == probeHeavy
	}

	if !heavyAt(g.Entry) {
		ctx.errorf(PassCoverage, -1, int(g.Blocks[g.Entry].Start),
			"function entry lacks a heavyweight probe")
	}
	for _, b := range g.Blocks {
		p, hasProbe := fi.probes[b.Start]
		if !fi.dom.Reachable(b.ID) {
			if hasProbe {
				ctx.errorf(PassCoverage, -1, int(b.Start),
					"%s probe in unreachable block", p.kind)
			}
			continue
		}
		if b.IsJTABSlot {
			if hasProbe {
				ctx.errorf(PassCoverage, -1, int(b.Start),
					"jump-table slot carries a %s probe (slots must stay contiguous)", p.kind)
			}
			continue
		}
		if b.IsMultiwayTarget && !heavyAt(b.ID) {
			ctx.errorf(PassCoverage, -1, int(b.Start),
				"multiway-branch target lacks a heavyweight probe")
		}
		// Real calls must return into a heavyweight probe. A probe's
		// own helper CALL is exempt: its "return point" is the probe's
		// STI4 tail, not a header.
		if b.EndsInCall && !ctx.isHelperCallBlock(b) {
			for _, s := range b.Succs {
				sb := g.Blocks[s]
				if !sb.IsJTABSlot && !heavyAt(s) {
					ctx.errorf(PassCoverage, -1, int(sb.Start),
						"call return point lacks a heavyweight probe (exceptions in the callee would be misattributed)")
				}
			}
		}
	}

	// Every reachable cycle must contain a heavyweight probe, or a
	// loop's iterations all OR into one record and collapse to a
	// single traversal. Unreachable cycles are exempt: they must hold
	// no probes at all (flagged above).
	for _, scc := range g.NontrivialSCCs(func(id int) bool { return heavyAt(id) }) {
		if !fi.dom.Reachable(scc[0]) {
			continue
		}
		ctx.errorf(PassCoverage, -1, int(g.Blocks[scc[0]].Start),
			"cycle of %d block(s) contains no heavyweight probe", len(scc))
	}
}

// coverageMap checks the parsed probes against what the mapfile
// promises reconstruction: the header block of each DAG carries the
// heavyweight probe, each bit-carrying block carries a lightweight
// probe, and bit-less blocks carry none. Block-alignment problems are
// left to the map-consistency pass; misaligned blocks are skipped
// here so one defect yields one diagnosis.
func (ctx *context) coverageMap() {
	for di := range ctx.mf.DAGs {
		d := &ctx.mf.DAGs[di]
		for bi := range d.Blocks {
			mb := &d.Blocks[bi]
			fi, ok := ctx.funcContaining(mb.Start)
			if !ok {
				continue
			}
			_, last, ok := ctx.regionFor(fi, mb.Start)
			if !ok || last.End != mb.End {
				continue
			}
			p, has := fi.probes[mb.Start]
			switch {
			case bi == 0:
				if !has || p.kind != probeHeavy {
					ctx.errorf(PassCoverage, int(d.ID), int(mb.Start),
						"DAG %d header block lacks its heavyweight probe", d.ID)
				}
			case mb.Bit >= 0:
				if !has {
					ctx.errorf(PassCoverage, int(d.ID), int(mb.Start),
						"block assigned path bit %d carries no lightweight probe (its executions would vanish from the trace)", mb.Bit)
				} else if p.kind != probeLight {
					ctx.errorf(PassCoverage, int(d.ID), int(mb.Start),
						"block assigned path bit %d carries a %s probe, want lightweight", mb.Bit, p.kind)
				}
			default:
				if has {
					ctx.errorf(PassCoverage, int(d.ID), int(mb.Start),
						"block mapped with no path bit carries a %s probe", p.kind)
				}
			}
		}
	}
}
