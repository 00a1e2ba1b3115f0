package verify

import (
	"traceback/internal/module"
	"traceback/internal/recon"
	"traceback/internal/trace"
)

// encoding is the decodability pass: the record words probes emit must
// decode unambiguously. Three layers of the contract:
//
//  1. ID-range hygiene — the module's [DAGBase, DAGBase+DAGCount)
//     window must avoid the reserved top of the 21-bit ID space.
//     DAGWord(0x1FFFFF, all-bits) equals the Sentinel and BadDAGID is
//     the snap writer's orphan marker, so a window that overruns
//     MaxDAGID makes some probe words collide with control words —
//     including at buffer wrap points, where backward mining leans on
//     the Sentinel to find the write frontier.
//  2. Word well-formedness — every heavyweight probe stores a fresh
//     DAG record (DAG flag set, path bits clear, in-window ID), the
//     window is covered exactly once, and every lightweight mask is a
//     single in-range bit matching the mapfile's assignment.
//  3. Path injectivity — within each DAG, every maximal block path
//     must round-trip through the recon expansion rule: OR together
//     the path's bits, expand that bitset, and require the original
//     path back. Two paths sharing a bitset, or a branch target with
//     no bit, fail here.
func (ctx *context) encoding() {
	ctx.idRange()
	ctx.probeWords()
	if ctx.mf != nil {
		ctx.pathInjectivity()
	} else {
		ctx.infof(PassEncoding, "no mapfile: path-injectivity check skipped")
	}
}

// idRange checks layer 1: the module's DAG ID window against the
// reserved IDs at the top of the 21-bit space.
func (ctx *context) idRange() {
	m := ctx.m
	if m.DAGCount == 0 {
		return
	}
	top := uint64(m.DAGBase) + uint64(m.DAGCount) - 1
	if top > uint64(trace.MaxDAGID) {
		ctx.errorf(PassEncoding, -1, -1,
			"DAG ID window [%d,%d] overruns MaxDAGID %d: the top IDs collide with BadDAGID/Sentinel encodings and become undecodable",
			m.DAGBase, top, trace.MaxDAGID)
	}
}

// probeWords checks layer 2: every parsed probe's stored word/mask.
func (ctx *context) probeWords() {
	m := ctx.m
	// seen maps module-relative DAG ID -> instr index of the STI4 that
	// claims it.
	seen := make(map[uint32]uint32)
	heavies := 0
	for _, fi := range ctx.funcs {
		for _, start := range sortedProbeStarts(fi) {
			p := fi.probes[start]
			switch p.kind {
			case probeHeavy:
				heavies++
				ctx.heavyWord(fi, p, seen)
			case probeLight:
				ctx.lightMask(p)
			}
		}
	}
	if uint32(heavies) != m.DAGCount {
		ctx.errorf(PassEncoding, -1, -1,
			"module declares %d DAGs but holds %d heavyweight probes: some DAG IDs can never appear in a trace", m.DAGCount, heavies)
	}
}

// heavyWord validates one heavyweight probe's STI4 immediate: a
// well-formed, fresh, in-window DAG record whose ID matches the
// mapfile block it sits in, claimed by no other probe.
func (ctx *context) heavyWord(fi *fnInfo, p *probeInfo, seen map[uint32]uint32) {
	m := ctx.m
	w := trace.Word(p.word)
	if w == trace.Sentinel {
		ctx.errorf(PassEncoding, -1, int(p.sti),
			"heavyweight probe stores the Sentinel word: backward mining would mistake it for the buffer frontier")
		return
	}
	if !trace.IsDAG(w) {
		ctx.errorf(PassEncoding, -1, int(p.sti),
			"heavyweight probe stores %#08x, which does not decode as a DAG record", p.word)
		return
	}
	if bits := trace.PathBits(w); bits != 0 {
		ctx.errorf(PassEncoding, -1, int(p.sti),
			"freshly-emitted DAG word carries preset path bits %#x: phantom blocks would appear on every traversal", uint32(bits))
	}
	gid := trace.DAGID(w)
	if gid < m.DAGBase || gid >= m.DAGBase+m.DAGCount {
		ctx.errorf(PassEncoding, -1, int(p.sti),
			"probe emits DAG ID %d outside the module window [%d,%d)", gid, m.DAGBase, m.DAGBase+m.DAGCount)
		return
	}
	local := gid - m.DAGBase
	if prev, dup := seen[local]; dup {
		ctx.errorf(PassEncoding, int(local), int(p.sti),
			"DAG ID %d already emitted by the probe at instr %d: their traversals are indistinguishable in a trace", local, prev)
	} else {
		seen[local] = p.sti
	}
	if ctx.mf == nil {
		return
	}
	if ref, ok := ctx.place[p.start]; ok && ref.idx == 0 {
		if want := ctx.mf.DAGs[ref.dag].ID; local != want {
			ctx.errorf(PassEncoding, int(want), int(p.sti),
				"header probe emits DAG ID %d but the mapfile names this DAG %d: records would be expanded with the wrong map", local, want)
		}
	}
}

// lightMask validates one lightweight probe's ORM4 immediate: a single
// bit within the record's path-bit capacity, agreeing with the
// mapfile's bit assignment for the block.
func (ctx *context) lightMask(p *probeInfo) {
	mask := p.mask
	switch {
	case mask == 0:
		ctx.errorf(PassEncoding, -1, int(p.start),
			"lightweight probe ORs an empty mask: the block leaves no mark in the record")
		return
	case mask&(mask-1) != 0:
		ctx.errorf(PassEncoding, -1, int(p.start),
			"lightweight probe mask %#x sets more than one bit: it would impersonate other blocks", mask)
		return
	case trace.Word(mask)&^trace.PathMask != 0:
		ctx.errorf(PassEncoding, -1, int(p.start),
			"lightweight probe mask %#x lies outside the %d-bit path field: the OR corrupts the record's DAG ID", mask, trace.NumPathBits)
		return
	}
	if ctx.mf == nil {
		return
	}
	if ref, ok := ctx.place[p.start]; ok {
		mb := &ctx.mf.DAGs[ref.dag].Blocks[ref.idx]
		if mb.Bit >= 0 && mask != 1<<uint(mb.Bit) {
			ctx.errorf(PassEncoding, int(ctx.mf.DAGs[ref.dag].ID), int(p.start),
				"probe sets path bit %#x but the mapfile assigns bit %d: reconstruction would mark the wrong block", mask, mb.Bit)
		}
	}
}

// pathInjectivity checks layer 3 per DAG: headers carry no bit, every
// successor of a branching block is marked, and each maximal path
// round-trips through the expansion rule.
func (ctx *context) pathInjectivity() {
	for di := range ctx.mf.DAGs {
		ctx.dagInjectivity(di)
	}
}

func (ctx *context) dagInjectivity(di int) {
	d := &ctx.mf.DAGs[di]
	dagID := int(d.ID)
	if d.Blocks[0].Bit >= 0 {
		ctx.errorf(PassEncoding, dagID, int(d.Blocks[0].Start),
			"DAG header assigned path bit %d: the header is implied by the record itself and must carry no bit", d.Blocks[0].Bit)
	}

	// Rule: whenever the CFG can branch, the taken in-DAG successor
	// must be observable. A bit-less successor of a branching block is
	// invisible to expansion — the path through it decodes as if the
	// DAG were exited at the branch. Jump-table slots are the one
	// designed exception: they are bit-less trampolines whose targets
	// are always fresh DAG headers, so the next record identifies
	// which slot ran.
	for bi := range d.Blocks {
		mb := &d.Blocks[bi]
		fi, ok := ctx.funcContaining(mb.Start)
		if !ok {
			continue
		}
		_, last, ok := ctx.regionFor(fi, mb.Start)
		if !ok || last.End != mb.End || len(last.Succs) < 2 {
			continue
		}
		for _, s := range mb.Succs {
			if s <= bi || s >= len(d.Blocks) || d.Blocks[s].Bit >= 0 {
				continue
			}
			if sb, ok := fi.g.BlockAt(d.Blocks[s].Start); ok && sb.IsJTABSlot {
				continue
			}
			ctx.errorf(PassEncoding, dagID, int(d.Blocks[s].Start),
				"successor of a branching block has no path bit: expansion cannot tell whether it executed")
		}
	}

	// Maximal-path round-trip. Skip DAGs whose edge structure is
	// already broken (backward or out-of-range edges) — map-consistency
	// owns those, and enumeration must not loop on them.
	for bi := range d.Blocks {
		for _, s := range d.Blocks[bi].Succs {
			if s <= bi || s >= len(d.Blocks) {
				return
			}
		}
	}
	budget := ctx.opts.MaxPaths
	path := []int{0}
	complete := ctx.walkPaths(d, dagID, path, &budget)
	if !complete {
		ctx.warnf(PassEncoding, dagID, int(d.Blocks[0].Start),
			"DAG has more than %d maximal paths; decodability proved only for the enumerated prefix", ctx.opts.MaxPaths)
	}
}

// walkPaths DFS-enumerates maximal paths from the last element of
// path, round-tripping each completed path through recon.ExpandPath,
// the decoder reconstruction runs. It returns false once the budget is
// exhausted.
func (ctx *context) walkPaths(d *module.MapDAG, dagID int, path []int, budget *int) bool {
	cur := path[len(path)-1]
	succs := d.Blocks[cur].Succs
	if len(succs) == 0 {
		if *budget <= 0 {
			return false
		}
		*budget--
		var bits trace.Word
		for _, b := range path {
			if bit := d.Blocks[b].Bit; bit >= 0 {
				bits |= 1 << uint(bit)
			}
		}
		got := recon.ExpandPath(d, bits)
		want := observablePrefix(d, path)
		if !equalPath(got, want) {
			ctx.errorf(PassEncoding, dagID, int(d.Blocks[path[len(path)-1]].Start),
				"path %v encodes to bits %#x but those bits expand to %v (want %v): the record is ambiguous", path, bits, got, want)
		}
		return true
	}
	for _, s := range succs {
		if !ctx.walkPaths(d, dagID, append(path, s), budget) {
			return false
		}
	}
	return true
}

// observablePrefix is the portion of an executed path the record can
// represent: each step is kept while it is either implied (single
// bit-less successor) or marked by the taken block's bit; the first
// unmarked branch target ends the visible path. For well-formed maps
// this drops only trailing jump-table slots (the next record names
// the target); the branching-successor rule above flags every other
// invisible step.
func observablePrefix(d *module.MapDAG, path []int) []int {
	out := []int{0}
	for i := 1; i < len(path); i++ {
		cur, nxt := path[i-1], path[i]
		succs := d.Blocks[cur].Succs
		if (len(succs) == 1 && d.Blocks[succs[0]].Bit < 0) || d.Blocks[nxt].Bit >= 0 {
			out = append(out, nxt)
			continue
		}
		break
	}
	return out
}

func equalPath(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
