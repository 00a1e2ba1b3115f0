package verify

import (
	"traceback/internal/module"
)

// mapConsistency is the map-consistency pass: the mapfile must
// describe exactly this module (the PR-1 "mapfile drift" class), and
// its DAG/block/edge structure must be a faithful image of the real
// CFG — every map block is one CFG block, map edges equal the in-DAG
// CFG successor edges, blocks are listed in forward topological order
// (ExpandPath only walks forward), and every reachable CFG block
// belongs to exactly one DAG. Reconstruction trusts all of this
// blindly: a dangling edge sends path expansion through code that
// cannot execute; a missing block silently drops source lines.
func (ctx *context) mapConsistency() {
	m, mf := ctx.m, ctx.mf

	if mf.ModuleName != m.Name {
		ctx.errorf(PassMap, -1, -1, "mapfile names module %q, checking %q", mf.ModuleName, m.Name)
	}
	if sum := m.ChecksumHex(); mf.Checksum != sum {
		ctx.errorf(PassMap, -1, -1,
			"mapfile checksum %s does not match module checksum %s (mapfile drift: built from different code)",
			mf.Checksum, sum)
	}
	if mf.DAGBase != m.DAGBase {
		ctx.errorf(PassMap, -1, -1, "mapfile DAGBase %d != module DAGBase %d", mf.DAGBase, m.DAGBase)
	}
	if mf.DAGCount != m.DAGCount {
		ctx.errorf(PassMap, -1, -1, "mapfile DAGCount %d != module DAGCount %d", mf.DAGCount, m.DAGCount)
	}
	for id := uint32(0); id < mf.DAGCount; id++ {
		if _, ok := mf.DAGByID(id); !ok {
			ctx.errorf(PassMap, int(id), -1, "DAGByID not total: DAG %d unresolvable", id)
		}
	}

	// Occupancy: how many map blocks claim each block start.
	occ := map[uint32]int{}
	for di := range mf.DAGs {
		for bi := range mf.DAGs[di].Blocks {
			occ[mf.DAGs[di].Blocks[bi].Start]++
		}
	}

	for di := range mf.DAGs {
		ctx.checkDAG(&mf.DAGs[di])
	}

	// Every reachable region head must be described by exactly one map
	// block; unreachable blocks should not appear at all. Heavy-probe
	// continuation blocks are CFG artifacts of the probe's own helper
	// CALL, not regions of their own.
	for _, fi := range ctx.funcs {
		for _, b := range fi.g.Blocks {
			if ctx.isContinuation(b.Start) {
				continue
			}
			n := occ[b.Start]
			switch {
			case fi.dom.Reachable(b.ID) && n == 0:
				ctx.errorf(PassMap, -1, int(b.Start),
					"reachable block not described by any DAG: its execution would vanish from reconstruction")
			case n > 1:
				ctx.errorf(PassMap, -1, int(b.Start),
					"block claimed by %d map blocks (ambiguous ownership)", n)
			case !fi.dom.Reachable(b.ID) && n > 0:
				ctx.warnf(PassMap, -1, int(b.Start),
					"unreachable block appears in the mapfile")
			}
		}
	}
}

// checkDAG verifies one MapDAG's block alignment, edge set, and
// annotations against the CFG.
func (ctx *context) checkDAG(d *module.MapDAG) {
	dagID := int(d.ID)
	startIdx := make(map[uint32]int, len(d.Blocks))
	for bi := range d.Blocks {
		startIdx[d.Blocks[bi].Start] = bi
	}
	headerStart := d.Blocks[0].Start

	var owner *fnInfo
	aligned := make([]bool, len(d.Blocks))
	for bi := range d.Blocks {
		mb := &d.Blocks[bi]
		if ctx.inHelper(mb.Start) {
			ctx.errorf(PassMap, dagID, int(mb.Start), "map block inside the probe helper")
			continue
		}
		fi, ok := ctx.funcContaining(mb.Start)
		if !ok {
			ctx.errorf(PassMap, dagID, int(mb.Start), "map block outside any analyzed function")
			continue
		}
		if owner == nil {
			owner = fi
		} else if fi != owner {
			ctx.errorf(PassMap, dagID, int(mb.Start),
				"DAG %d spans functions %s and %s (tiles are per-function)", d.ID, owner.fn.Name, fi.fn.Name)
			continue
		}
		first, last, ok := ctx.regionFor(fi, mb.Start)
		if !ok {
			ctx.errorf(PassMap, dagID, int(mb.Start),
				"map block start %d is not a basic-block boundary", mb.Start)
			continue
		}
		if last.End != mb.End {
			ctx.errorf(PassMap, dagID, int(mb.Start),
				"map block [%d,%d) misaligned with CFG region [%d,%d): line spans and exception trimming would use wrong code ranges",
				mb.Start, mb.End, first.Start, last.End)
			continue
		}
		aligned[bi] = true
		if first.IsJTABSlot && mb.Bit >= 0 {
			ctx.errorf(PassMap, dagID, int(mb.Start),
				"jump-table slot assigned path bit %d (slots are never probed)", mb.Bit)
		}
		// Display annotations: wrong values degrade the call-hierarchy
		// view, not correctness, so warn.
		wantCall := module.CallNone
		if last.EndsInCall {
			wantCall = last.CallKind
		}
		if mb.Call != wantCall {
			ctx.warnf(PassMap, dagID, int(mb.Start),
				"map block call annotation %v, CFG says %v", mb.Call, wantCall)
		}
		if mb.FuncExit != last.HasRet {
			ctx.warnf(PassMap, dagID, int(mb.Start),
				"map block funcExit=%v, CFG says %v", mb.FuncExit, last.HasRet)
		}
	}
	if owner == nil {
		return
	}

	// Edge sets: map Succs must equal the in-DAG CFG successor edges
	// of the region's last block (the header is never a successor:
	// re-entering it emits a fresh record), and must run forward so
	// path expansion terminates.
	g := owner.g
	for bi := range d.Blocks {
		if !aligned[bi] {
			continue
		}
		mb := &d.Blocks[bi]
		_, blk, _ := ctx.regionFor(owner, mb.Start)
		prev := -1
		for _, s := range mb.Succs {
			if s <= bi {
				ctx.errorf(PassMap, dagID, int(mb.Start),
					"map successor %d is not topologically after block %d: path expansion walks forward only", s, bi)
			}
			if s <= prev {
				ctx.errorf(PassMap, dagID, int(mb.Start),
					"map successors not in ascending order at %d: expansion picks the earliest marked successor", s)
			}
			prev = s
			target := d.Blocks[s].Start
			found := false
			for _, cs := range blk.Succs {
				if g.Blocks[cs].Start == target {
					found = true
					break
				}
			}
			if !found {
				ctx.errorf(PassMap, dagID, int(mb.Start),
					"dangling DAG edge %d->%d: no CFG edge from block %d to block at %d", bi, s, mb.Start, target)
			}
		}
		for _, cs := range blk.Succs {
			ss := g.Blocks[cs].Start
			j, in := startIdx[ss]
			if !in || ss == headerStart {
				continue // leaves the DAG, or loops back to the header
			}
			present := false
			for _, s := range mb.Succs {
				if s == j {
					present = true
					break
				}
			}
			if !present {
				ctx.errorf(PassMap, dagID, int(mb.Start),
					"CFG edge from block %d to in-DAG block at %d missing from the mapfile: that path could never be expanded", mb.Start, ss)
			}
		}
	}
}
