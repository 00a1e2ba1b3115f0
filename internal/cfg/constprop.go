package cfg

import "traceback/internal/isa"

// Intra-procedural constant propagation, solved by a forward worklist
// fixpoint over the CFG. Its job is modest but specific: resolve the
// endpoint-id argument of RPC syscalls at their call sites. MiniC
// marshals syscall arguments through the operand stack (evaluate,
// PUSH, then POP into r1..r4 before SYS), so a register-only analysis
// sees nothing — the state therefore includes a bounded abstract stack
// of values relative to the current SP. The model assumes every SP
// adjustment goes through PUSH/POP/CALL/RET and that callees do not
// write the caller's live stack slots; stores through SP or FP
// conservatively smash tracked stack values. See DESIGN.md §8 for the
// soundness discussion.

// ConstVal is a flat constant lattice value: unknown or one int64.
type ConstVal struct {
	Known bool
	V     int64
}

func known(v int64) ConstVal { return ConstVal{Known: true, V: v} }

// maxTrackedStack bounds the abstract operand stack so the lattice
// stays finite; deeper stacks degrade to unknown.
const maxTrackedStack = 64

type cpState struct {
	regs [isa.NumRegs]ConstVal
	// stack holds the values at [SP], [SP+8], ... (stack[len-1] is the
	// top of stack) pushed since function entry; valid only if stackOK.
	stack   []ConstVal
	stackOK bool
	// bottom marks the pre-first-visit state (identity of meet).
	bottom bool
}

func (s cpState) clone() cpState {
	s.stack = append([]ConstVal(nil), s.stack...)
	return s
}

// smashStack forgets tracked stack values but keeps the height, so
// PUSH/POP alignment survives a store that may alias the stack.
func (s *cpState) smashStack() {
	for i := range s.stack {
		s.stack[i] = ConstVal{}
	}
}

type constProblem struct {
	g      *Graph
	helper map[uint32]bool
}

// solve runs the worklist fixpoint in reverse postorder and returns
// every block's in-state. The entry block starts from an empty tracked
// stack; a block none of whose predecessors has been processed yet
// (and one unreachable from the entry) holds the bottom state, the
// identity of meet. The fixpoint stops when no block's out-state
// changes.
func (p *constProblem) solve() []cpState {
	g := p.g
	n := len(g.Blocks)
	in := make([]cpState, n)
	out := make([]cpState, n)
	visited := make([]bool, n)
	for i := range in {
		in[i] = cpState{bottom: true}
		out[i] = cpState{bottom: true}
	}

	rpo := g.ReversePostorder()
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for i, b := range rpo {
		pos[b] = i
	}

	inList := make([]bool, n)
	var work []int
	push := func(b int) {
		if !inList[b] {
			inList[b] = true
			work = append(work, b)
		}
	}
	for _, b := range rpo {
		push(b)
	}

	for len(work) > 0 {
		// Pop the block earliest in RPO for near-linear convergence on
		// reducible graphs.
		best := 0
		for i := 1; i < len(work); i++ {
			if pos[work[i]] < pos[work[best]] {
				best = i
			}
		}
		b := work[best]
		work[best] = work[len(work)-1]
		work = work[:len(work)-1]
		inList[b] = false

		st := cpState{bottom: true}
		merged := false
		if b == g.Entry {
			st = cpState{stackOK: true}
			merged = true
		}
		for _, pr := range g.Blocks[b].Preds {
			if !visited[pr] {
				continue
			}
			if !merged {
				st = out[pr]
				merged = true
			} else {
				st = p.meet(st, out[pr])
			}
		}
		in[b] = st
		newOut := p.transfer(g.Blocks[b], st)
		if !visited[b] || !p.equal(newOut, out[b]) {
			visited[b] = true
			out[b] = newOut
			for _, s := range g.Blocks[b].Succs {
				push(s)
			}
		}
	}
	return in
}

// meet combines two predecessor out-states without mutating either.
func (p *constProblem) meet(a, b cpState) cpState {
	if a.bottom {
		return b.clone()
	}
	if b.bottom {
		return a.clone()
	}
	var out cpState
	for i := range out.regs {
		if a.regs[i].Known && b.regs[i].Known && a.regs[i].V == b.regs[i].V {
			out.regs[i] = a.regs[i]
		}
	}
	if a.stackOK && b.stackOK && len(a.stack) == len(b.stack) {
		out.stackOK = true
		out.stack = make([]ConstVal, len(a.stack))
		for i := range out.stack {
			if a.stack[i].Known && b.stack[i].Known && a.stack[i].V == b.stack[i].V {
				out.stack[i] = a.stack[i]
			}
		}
	}
	return out
}

func (p *constProblem) equal(a, b cpState) bool {
	if a.bottom != b.bottom || a.stackOK != b.stackOK ||
		a.regs != b.regs || len(a.stack) != len(b.stack) {
		return false
	}
	for i := range a.stack {
		if a.stack[i] != b.stack[i] {
			return false
		}
	}
	return true
}

// transfer flows in through block b; in is not mutated.
func (p *constProblem) transfer(b *Block, in cpState) cpState {
	st := in.clone()
	st.bottom = false
	for idx := b.Start; idx < b.End; idx++ {
		p.step(&st, p.g.Code[idx])
	}
	return st
}

// step applies one instruction to st in place.
func (p *constProblem) step(st *cpState, in isa.Instr) {
	set := func(r uint8, v ConstVal) { st.regs[r] = v }
	reg := func(r uint8) ConstVal { return st.regs[r] }

	switch in.Op {
	case isa.MOVI:
		set(in.A, known(int64(in.Imm)))
	case isa.MOV:
		set(in.A, reg(in.B))
	case isa.ADDI:
		if v := reg(in.B); v.Known {
			set(in.A, known(v.V+int64(in.Imm)))
		} else {
			set(in.A, ConstVal{})
		}
	case isa.NEG:
		set(in.A, fold1(reg(in.B), func(v int64) int64 { return -v }))
	case isa.NOT:
		set(in.A, fold1(reg(in.B), func(v int64) int64 { return ^v }))
	case isa.ADD:
		set(in.A, fold2(reg(in.B), reg(in.C), func(x, y int64) int64 { return x + y }))
	case isa.SUB:
		set(in.A, fold2(reg(in.B), reg(in.C), func(x, y int64) int64 { return x - y }))
	case isa.AND:
		set(in.A, fold2(reg(in.B), reg(in.C), func(x, y int64) int64 { return x & y }))
	case isa.OR:
		set(in.A, fold2(reg(in.B), reg(in.C), func(x, y int64) int64 { return x | y }))
	case isa.XOR:
		set(in.A, fold2(reg(in.B), reg(in.C), func(x, y int64) int64 { return x ^ y }))
	case isa.CMPEQ:
		set(in.A, foldCmp(reg(in.B), reg(in.C), func(x, y int64) bool { return x == y }))
	case isa.CMPNE:
		set(in.A, foldCmp(reg(in.B), reg(in.C), func(x, y int64) bool { return x != y }))
	case isa.CMPLT:
		set(in.A, foldCmp(reg(in.B), reg(in.C), func(x, y int64) bool { return x < y }))
	case isa.CMPLE:
		set(in.A, foldCmp(reg(in.B), reg(in.C), func(x, y int64) bool { return x <= y }))
	case isa.MUL, isa.DIV, isa.MOD, isa.SHL, isa.SHR:
		// Not needed for endpoint resolution; folding them would tie
		// this analysis to the VM's exact overflow/shift semantics.
		set(in.A, ConstVal{})
	case isa.LD, isa.LD4, isa.GADDR, isa.LDFN, isa.TLSLD:
		set(in.A, ConstVal{})
	case isa.PUSH:
		if st.stackOK {
			if len(st.stack) >= maxTrackedStack {
				st.stackOK = false
				st.stack = nil
			} else {
				st.stack = append(st.stack, reg(in.A))
			}
		}
	case isa.POP:
		if st.stackOK && len(st.stack) > 0 {
			set(in.A, st.stack[len(st.stack)-1])
			st.stack = st.stack[:len(st.stack)-1]
		} else {
			// Popping below function entry reads the caller's frame;
			// the value is unknown but relative alignment survives.
			set(in.A, ConstVal{})
		}
	case isa.ST, isa.ST4:
		if in.A == isa.SP || in.A == isa.FP || !reg(in.A).Known {
			// May alias tracked stack slots (FP-relative locals live on
			// the same stack). Unknown bases get the same treatment.
			st.smashStack()
		}
	case isa.STI4, isa.ORM4:
		if in.A == isa.SP || in.A == isa.FP {
			st.smashStack()
		}
	case isa.SYS:
		set(isa.RV, ConstVal{})
	case isa.CALL:
		if p.helper[uint32(in.Imm)] {
			// The probe helper preserves everything except RV (the
			// trace-buffer pointer it returns).
			set(isa.RV, ConstVal{})
			break
		}
		p.call(st)
	case isa.CALX, isa.CALR:
		p.call(st)
	}
}

// call applies the calling convention: caller-saved registers are
// clobbered, callee-saved ones survive, and stack slots at or above
// the caller's SP are assumed untouched.
func (p *constProblem) call(st *cpState) {
	for r := 0; r < isa.NumRegs; r++ {
		if !isa.CalleeSaved(r) {
			st.regs[r] = ConstVal{}
		}
	}
}

func fold1(v ConstVal, f func(int64) int64) ConstVal {
	if !v.Known {
		return ConstVal{}
	}
	return known(f(v.V))
}

func fold2(x, y ConstVal, f func(int64, int64) int64) ConstVal {
	if !x.Known || !y.Known {
		return ConstVal{}
	}
	return known(f(x.V, y.V))
}

func foldCmp(x, y ConstVal, f func(int64, int64) bool) ConstVal {
	if !x.Known || !y.Known {
		return ConstVal{}
	}
	if f(x.V, y.V) {
		return known(1)
	}
	return known(0)
}

// ConstProp holds the solved per-block constant states for one
// function and answers point queries by re-simulating within a block.
type ConstProp struct {
	g  *Graph
	p  *constProblem
	in []cpState
}

// NewConstProp runs constant propagation over g. helperEntries names
// CALL targets (module-relative entry indexes) modeled as the probe
// helper — clobbering only RV — instead of a full caller-saved smash.
func NewConstProp(g *Graph, helperEntries map[uint32]bool) *ConstProp {
	p := &constProblem{g: g, helper: helperEntries}
	return &ConstProp{g: g, p: p, in: p.solve()}
}

// RegBefore returns the constant value of register reg immediately
// before executing the instruction at module-relative index idx, if
// the analysis can prove one.
func (cp *ConstProp) RegBefore(idx uint32, reg uint8) (int64, bool) {
	b, ok := cp.g.BlockContaining(idx)
	if !ok {
		return 0, false
	}
	st := cp.in[b.ID]
	if st.bottom {
		// Block unreachable from the entry: no constraint to report.
		return 0, false
	}
	st = st.clone()
	for i := b.Start; i < idx; i++ {
		cp.p.step(&st, cp.g.Code[i])
	}
	v := st.regs[reg]
	return v.V, v.Known
}
