// Package cfg lifts decoded machine code to a control-flow graph and
// provides the analyses TraceBack instrumentation needs: basic-block
// construction (including jump tables and indirect calls), register
// liveness (so probes can scavenge dead registers instead of
// spilling), and cycle detection (so DAG tiling can guarantee every
// loop contains a heavyweight probe).
package cfg

import (
	"fmt"
	"sort"

	"traceback/internal/isa"
	"traceback/internal/module"
)

// Block is a basic block of a function-level CFG. Start/End are
// module-relative instruction indexes, [Start, End).
type Block struct {
	ID    int
	Start uint32
	End   uint32
	Succs []int
	Preds []int

	// EndsInCall marks blocks whose last instruction is a call; the
	// fallthrough successor is the call's return point, which DAG
	// tiling must head with a heavyweight probe (paper §2.2, §2.4).
	EndsInCall bool
	CallKind   module.CallKind
	CallImm    int32 // call target / import index for direct & import calls

	// IsMultiwayTarget marks successors of a JTAB dispatch; they must
	// become DAG headers (paper §2.1: "force all multiway branch
	// targets to hold heavyweight probes").
	IsMultiwayTarget bool

	// IsJTABSlot marks a single-JMP trampoline block that is one of a
	// jump table's slots. Slots must stay contiguous after the JTAB,
	// so instrumentation never inserts probes into them; their
	// execution is recovered from the following DAG header record.
	IsJTABSlot bool

	HasRet bool // block ends in RET
}

// Graph is a function-level CFG over a module's code.
type Graph struct {
	Fn     module.Func
	Code   []isa.Instr // entire module code; blocks index into it
	Blocks []*Block
	// Entry is Blocks[Entry], the function entry block (always 0).
	Entry int
	// byStart maps a block's Start index to its ID.
	byStart map[uint32]int
}

// BlockAt returns the block starting at instruction index start.
func (g *Graph) BlockAt(start uint32) (*Block, bool) {
	id, ok := g.byStart[start]
	if !ok {
		return nil, false
	}
	return g.Blocks[id], true
}

// BlockContaining returns the block containing instruction index idx.
func (g *Graph) BlockContaining(idx uint32) (*Block, bool) {
	i := sort.Search(len(g.Blocks), func(i int) bool { return g.Blocks[i].Start > idx })
	if i == 0 {
		return nil, false
	}
	b := g.Blocks[i-1]
	if idx >= b.End {
		return nil, false
	}
	return b, true
}

// BuildErrKind classifies why Build rejected a function, so callers
// (notably the static verifier in internal/verify) can map structural
// failures to specific diagnoses instead of string-matching.
type BuildErrKind uint8

const (
	// ErrBadFuncRange: the function's [Entry, End) range is empty or
	// escapes the module's code section.
	ErrBadFuncRange BuildErrKind = iota + 1
	// ErrEscapingBranch: a branch targets an index outside the function.
	ErrEscapingBranch
	// ErrEscapingCall: a call targets an index outside the module.
	ErrEscapingCall
	// ErrBadJumpTable: a JTAB's slot list is empty, overruns the
	// function, or holds a non-JMP instruction.
	ErrBadJumpTable
	// ErrFallthroughEnd: control falls through the function's last
	// instruction into a nonexistent block (no RET/JMP/HLT/exit
	// terminator).
	ErrFallthroughEnd
	// ErrBadEdge: an intra-function edge lands on a non-leader index
	// (internal inconsistency; should be unreachable).
	ErrBadEdge
)

func (k BuildErrKind) String() string {
	switch k {
	case ErrBadFuncRange:
		return "bad-func-range"
	case ErrEscapingBranch:
		return "escaping-branch"
	case ErrEscapingCall:
		return "escaping-call"
	case ErrBadJumpTable:
		return "bad-jump-table"
	case ErrFallthroughEnd:
		return "fallthrough-off-end"
	case ErrBadEdge:
		return "bad-edge"
	}
	return fmt.Sprintf("builderr(%d)", uint8(k))
}

// BuildError is the typed error Build returns. Instr is the
// module-relative index of the offending instruction.
type BuildError struct {
	Fn    string
	Kind  BuildErrKind
	Instr uint32
	msg   string
}

func (e *BuildError) Error() string { return e.msg }

func buildErr(fn module.Func, kind BuildErrKind, instr uint32, format string, args ...any) error {
	return &BuildError{Fn: fn.Name, Kind: kind, Instr: instr, msg: fmt.Sprintf(format, args...)}
}

// Build constructs the CFG for fn over code.
//
// Control may leave the function only through RET, HLT, or a raised
// exception; branch targets outside [fn.Entry, fn.End) are rejected.
// Calls do not end the intraprocedural path: the call's return point
// continues the block sequence as the call block's successor, and the
// block is annotated so instrumentation can treat the return point as
// a fresh entry.
//
// All rejections are *BuildError values classified by BuildErrKind.
func Build(code []isa.Instr, fn module.Func) (*Graph, error) {
	if fn.Entry >= fn.End || fn.End > uint32(len(code)) {
		return nil, buildErr(fn, ErrBadFuncRange, fn.Entry,
			"cfg: function %s range [%d,%d) invalid", fn.Name, fn.Entry, fn.End)
	}

	// Pass 1: find leaders.
	leader := map[uint32]bool{fn.Entry: true}
	multiway := map[uint32]bool{}
	slots := map[uint32]bool{}
	for i := fn.Entry; i < fn.End; i++ {
		in := code[i]
		op := in.Op
		if op.HasCodeTarget() && op != isa.CALL {
			// Branch targets must stay inside the function; CALL
			// targets name other functions and do not create leaders.
			t := uint32(in.Imm)
			if t < fn.Entry || t >= fn.End {
				return nil, buildErr(fn, ErrEscapingBranch, i,
					"cfg: %s: instruction %d (%v) targets %d outside function [%d,%d)",
					fn.Name, i, in, t, fn.Entry, fn.End)
			}
			leader[t] = true
		}
		if op == isa.CALL {
			if t := uint32(in.Imm); t >= uint32(len(code)) {
				return nil, buildErr(fn, ErrEscapingCall, i,
					"cfg: %s: call at %d targets %d outside module", fn.Name, i, t)
			}
		}
		if op == isa.JTAB {
			n := uint32(in.C)
			if n == 0 || i+1+n > fn.End {
				return nil, buildErr(fn, ErrBadJumpTable, i,
					"cfg: %s: jump table at %d with %d slots overruns function", fn.Name, i, n)
			}
			for s := uint32(1); s <= n; s++ {
				if code[i+s].Op != isa.JMP {
					return nil, buildErr(fn, ErrBadJumpTable, i+s,
						"cfg: %s: jump-table slot at %d is %v, want jmp", fn.Name, i+s, code[i+s].Op)
				}
				leader[i+s] = true
				slots[i+s] = true
				multiway[uint32(code[i+s].Imm)] = true
			}
		}
		if (op.IsBlockEnd() || in.NoReturn()) && i+1 < fn.End {
			leader[i+1] = true
		}
	}

	// Pass 2: materialize blocks in address order.
	starts := make([]uint32, 0, len(leader))
	for s := range leader {
		starts = append(starts, s)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })

	g := &Graph{Fn: fn, Code: code, byStart: make(map[uint32]int, len(starts))}
	for i, s := range starts {
		end := fn.End
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		b := &Block{ID: i, Start: s, End: end}
		g.Blocks = append(g.Blocks, b)
		g.byStart[s] = i
	}

	// Pass 3: wire successors.
	addEdge := func(from *Block, to uint32) error {
		id, ok := g.byStart[to]
		if !ok {
			return buildErr(fn, ErrBadEdge, from.End-1,
				"cfg: %s: edge from block %d to non-leader %d", fn.Name, from.ID, to)
		}
		from.Succs = append(from.Succs, id)
		g.Blocks[id].Preds = append(g.Blocks[id].Preds, from.ID)
		return nil
	}
	for _, b := range g.Blocks {
		last := code[b.End-1]
		switch {
		case last.Op.IsCondBranch():
			if err := addEdge(b, uint32(last.Imm)); err != nil {
				return nil, err
			}
			if b.End < fn.End {
				if err := addEdge(b, b.End); err != nil {
					return nil, err
				}
			} else {
				return nil, buildErr(fn, ErrFallthroughEnd, b.End-1,
					"cfg: %s: conditional branch falls off function end", fn.Name)
			}
		case last.Op == isa.JMP:
			if err := addEdge(b, uint32(last.Imm)); err != nil {
				return nil, err
			}
		case last.Op == isa.JTAB:
			for s := uint32(1); s <= uint32(last.C); s++ {
				if err := addEdge(b, b.End-1+s); err != nil {
					return nil, err
				}
			}
		case last.Op == isa.RET, last.Op == isa.HLT:
			b.HasRet = last.Op == isa.RET
		case last.NoReturn():
			// Process exit: no successors.
		case last.Op.IsCall():
			b.EndsInCall = true
			b.CallImm = last.Imm
			switch last.Op {
			case isa.CALL:
				b.CallKind = module.CallDirect
			case isa.CALX:
				b.CallKind = module.CallImport
			case isa.CALR:
				b.CallKind = module.CallIndirect
				b.CallImm = int32(last.A)
			}
			if b.End < fn.End {
				if err := addEdge(b, b.End); err != nil {
					return nil, err
				}
			}
			// A call as the function's final instruction never
			// returns into this function; no successor.
		default:
			// Plain fallthrough into the next block.
			if b.End < fn.End {
				if err := addEdge(b, b.End); err != nil {
					return nil, err
				}
			} else {
				return nil, buildErr(fn, ErrFallthroughEnd, b.End-1,
					"cfg: %s: control falls off function end", fn.Name)
			}
		}
	}
	for t := range multiway {
		if id, ok := g.byStart[t]; ok {
			g.Blocks[id].IsMultiwayTarget = true
		}
	}
	for s := range slots {
		if id, ok := g.byStart[s]; ok {
			g.Blocks[id].IsJTABSlot = true
		}
	}
	return g, nil
}

// RegSet is a bitmask over the 16 architectural registers.
type RegSet uint32

// Has reports whether r is in the set.
func (s RegSet) Has(r uint8) bool { return s&(1<<r) != 0 }

// Add returns the set with r added.
func (s RegSet) Add(r uint8) RegSet { return s | 1<<r }

// callerSaved is the set of registers a call clobbers.
var callerSaved RegSet

func init() {
	for r := 0; r < isa.NumRegs; r++ {
		if !isa.CalleeSaved(r) {
			callerSaved |= 1 << r
		}
	}
}

// InstrEffect returns (uses, defs) for one instruction, with calls
// treated conservatively: a call reads the argument registers and SP
// and clobbers every caller-saved register; RET reads the return
// value, SP, and all callee-saved registers (the caller expects them
// restored). It is the default effect function for Liveness; analyses
// that know more about specific call targets (the probe-safety
// verifier models the instrumentation helper's exact footprint) pass
// their own effect to LivenessFunc.
func InstrEffect(in isa.Instr) (uses, defs RegSet) {
	var tmp [6]uint8
	for _, r := range in.Reads(tmp[:0]) {
		uses = uses.Add(r)
	}
	for _, r := range in.Writes(tmp[:0]) {
		defs = defs.Add(r)
	}
	if in.Op.IsCall() {
		uses = uses.Add(isa.A1).Add(isa.A2).Add(isa.A3).Add(isa.A4)
		defs |= callerSaved
	}
	if in.Op == isa.RET {
		uses = uses.Add(isa.RV).Add(isa.SP)
		for r := 0; r < isa.NumRegs; r++ {
			if isa.CalleeSaved(r) {
				uses = uses.Add(uint8(r))
			}
		}
	}
	return uses, defs
}

// Liveness computes per-block live-in and live-out register sets with
// a standard backward dataflow fixpoint. Instrumentation consults
// live-in to pick scratch registers for probes at block entry; when no
// dead register exists the probe must spill (the paper's gzip
// longest_match case).
func (g *Graph) Liveness() (liveIn, liveOut []RegSet) {
	return g.LivenessFunc(InstrEffect)
}

// LivenessFunc is Liveness with a caller-supplied per-instruction
// effect function, letting analyses refine the conservative call
// model (e.g. treat a CALL to the probe helper as clobbering only the
// registers the helper actually writes).
func (g *Graph) LivenessFunc(effect func(isa.Instr) (uses, defs RegSet)) (liveIn, liveOut []RegSet) {
	n := len(g.Blocks)
	liveIn = make([]RegSet, n)
	liveOut = make([]RegSet, n)
	use := make([]RegSet, n) // upward-exposed uses
	def := make([]RegSet, n)
	for i, b := range g.Blocks {
		for idx := b.Start; idx < b.End; idx++ {
			u, d := effect(g.Code[idx])
			use[i] |= u &^ def[i]
			def[i] |= d
		}
	}
	changed := true
	for changed {
		changed = false
		for i := n - 1; i >= 0; i-- {
			b := g.Blocks[i]
			var out RegSet
			for _, s := range b.Succs {
				out |= liveIn[s]
			}
			in := use[i] | (out &^ def[i])
			if out != liveOut[i] || in != liveIn[i] {
				liveOut[i] = out
				liveIn[i] = in
				changed = true
			}
		}
	}
	return liveIn, liveOut
}

// NontrivialSCCs returns the strongly connected components with more
// than one node (or a self-loop) in the subgraph that excludes every
// edge entering a block for which cut returns true. DAG tiling calls
// this repeatedly: marking one block per SCC as a DAG header (cutting
// its incoming edges) until no cycles remain.
func (g *Graph) NontrivialSCCs(cut func(id int) bool) [][]int {
	n := len(g.Blocks)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var next int
	var out [][]int

	type frame struct {
		v, si int
	}
	var dfs func(root int)
	dfs = func(root int) {
		frames := []frame{{root, 0}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.si < len(g.Blocks[v].Succs) {
				w := g.Blocks[v].Succs[f.si]
				f.si++
				if cut(w) {
					continue
				}
				if index[w] == -1 {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				if len(comp) > 1 {
					out = append(out, comp)
				} else if hasSelfLoop(g, comp[0], cut) {
					out = append(out, comp)
				}
			}
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == -1 && !cut(v) {
			dfs(v)
		}
	}
	return out
}

func hasSelfLoop(g *Graph, v int, cut func(int) bool) bool {
	if cut(v) {
		return false
	}
	for _, s := range g.Blocks[v].Succs {
		if s == v {
			return true
		}
	}
	return false
}
