// Package isa defines the instruction set of the synthetic machine that
// TraceBack instruments: a 64-bit register machine with 16 general
// registers, thread-local-storage access instructions, and the
// store-immediate / or-to-memory forms that TraceBack probes are built
// from. Instructions have a fixed 8-byte encoding so modules can be
// decoded, lifted to a CFG, rewritten, and re-encoded.
package isa

import (
	"encoding/binary"
	"fmt"
)

// Op is an instruction opcode.
type Op uint8

// Opcodes. The comment gives the operand convention:
// A, B, C are register numbers (or small immediates where noted) and
// Imm is the 32-bit immediate / code target / offset.
const (
	NOP Op = iota

	// Data movement.
	MOVI // A = Imm (sign-extended)
	MOV  // A = B

	// Arithmetic and logic: A = B op C.
	ADD
	SUB
	MUL
	DIV // raises ExcDivideByZero when C == 0
	MOD // raises ExcDivideByZero when C == 0
	AND
	OR
	XOR
	SHL
	SHR
	ADDI // A = B + Imm
	NEG  // A = -B
	NOT  // A = ^B

	// Comparisons materializing 0/1: A = (B cmp C).
	CMPEQ
	CMPNE
	CMPLT
	CMPLE

	// Control flow. Code targets in Imm are module-relative
	// instruction indexes, rebased by the loader.
	BEQ  // if A == B goto Imm
	BNE  // if A != B goto Imm
	BLT  // if A < B goto Imm
	BLE  // if A <= B goto Imm
	BGT  // if A > B goto Imm
	BGE  // if A >= B goto Imm
	BEQI // if A == int8(C) goto Imm
	BNEI // if A != int8(C) goto Imm
	JMP  // goto Imm
	JTAB // multiway: goto pc+1+A where 0 <= A < C; the C following instructions are JMPs
	CALL // push pc+1; goto Imm
	CALX // push pc+1; goto import[Imm] (cross-module, resolved at load)
	CALR // push pc+1; goto A (indirect, via register)
	RET  // pop pc

	// Memory. 64-bit unless suffixed 4 (32-bit).
	LD   // A = mem64[B + Imm]
	ST   // mem64[A + Imm] = B
	LD4  // A = mem32[B + Imm] (sign-extended, so the probe helper can compare the sentinel to -1)
	ST4  // mem32[A + Imm] = B
	STI4 // mem32[A] = Imm        (heavyweight-probe DAG write)
	ORM4 // mem32[A] |= Imm       (lightweight-probe bit set)
	PUSH // sp -= 8; mem64[sp] = A
	POP  // A = mem64[sp]; sp += 8

	// Address formation, resolved/rebased by the loader.
	GADDR // A = dataBase + Imm
	LDFN  // A = code address of module function Imm

	// Thread-local storage: slot index in C.
	TLSLD // A = tls[C]
	TLSST // tls[C] = A

	// System call: number in Imm, args in r1..r4, result in r0.
	SYS

	// HLT always raises ExcBadOpcode; used as poison padding.
	HLT

	numOps
)

// NumOps is the number of defined opcodes.
const NumOps = int(numOps)

// Register conventions.
const (
	NumRegs = 16
	RV      = 0 // return value; also probe-helper result (buffer pointer)
	A1      = 1 // first argument
	A2      = 2
	A3      = 3
	A4      = 4
	FP      = 14 // frame pointer
	SP      = 15 // stack pointer
)

// CalleeSaved reports whether register r must be preserved across calls.
func CalleeSaved(r int) bool { return (r >= 8 && r <= 13) || r == FP || r == SP }

// TLSSlot is the thread-local slot TraceBack reserves for the trace
// buffer pointer (the analog of FS:0xF00 / TLS index 60 on Windows).
const TLSSlot = 60

// NumTLSSlots is the per-thread TLS array size.
const NumTLSSlots = 64

// Syscall numbers (the Imm operand of SYS). Arguments are passed in
// r1..r4 and the result is returned in r0.
const (
	SysExit         = 1  // exit process (r1 = status)
	SysWrite        = 2  // write (r1 = fd, r2 = addr, r3 = len) -> n
	SysThreadCreate = 3  // (r1 = entry addr, r2 = arg) -> tid
	SysThreadJoin   = 4  // (r1 = tid) -> exit value
	SysSleep        = 5  // (r1 = cycles); r1 < 0 raises ExcBadArgument
	SysMutexLock    = 6  // (r1 = addr)
	SysMutexUnlock  = 7  // (r1 = addr)
	SysClock        = 8  // () -> machine clock (RDTSC analog)
	SysLoadModule   = 9  // (r1 = name addr, r2 = name len) -> module handle
	SysUnloadModule = 10 // (r1 = handle)
	SysRPCCall      = 11 // (r1 = endpoint id, r2 = req addr, r3 = req len, r4 = resp addr) -> status
	SysRaise        = 12 // (r1 = signal)
	SysKill         = 13 // (r1 = tid, r2 = signal); signal 9 terminates abruptly
	SysSignal       = 14 // (r1 = signal, r2 = handler addr) -> previous handler
	SysAlloc        = 15 // (r1 = size) -> addr
	SysSnap         = 16 // (r1 = reason addr, r2 = len): TraceBack snap API
	SysTBWrap       = 17 // buffer_wrap: called only by the probe helper
	SysRand         = 18 // () -> pseudo-random non-negative value
	SysMemcpy       = 19 // (r1 = dst, r2 = src, r3 = len)
	SysGetTID       = 20 // () -> current thread id
	SysYield        = 21 // yield the remainder of the time slice
	SysRPCRecv      = 22 // (r1 = endpoint id, r2 = buf addr, r3 = cap) -> req len
	SysRPCReply     = 23 // (r1 = endpoint id, r2 = resp addr, r3 = len)
	SysIORead       = 24 // (r1 = size): simulated disk read, costs I/O cycles
	SysIOWrite      = 25 // (r1 = size): simulated disk write
	SysNetSend      = 26 // (r1 = size): simulated network transfer
	SysGetArg       = 27 // () -> the thread's start argument
	SysPrintInt     = 28 // (r1 = value): write decimal + newline to the console
)

// SysEndpointArg returns the argument register carrying the RPC
// endpoint id for syscall num. Static analyses (the fleet verifier's
// cross-module RPC passes) use this instead of hard-coding which
// syscalls address endpoints.
func SysEndpointArg(num int) (reg uint8, ok bool) {
	switch num {
	case SysRPCCall, SysRPCRecv, SysRPCReply:
		return A1, true
	}
	return 0, false
}

// SysName returns a printable syscall name.
func SysName(num int) string {
	names := map[int]string{
		SysExit: "exit", SysWrite: "write", SysThreadCreate: "thread-create",
		SysThreadJoin: "join", SysSleep: "sleep", SysMutexLock: "mutex-lock",
		SysMutexUnlock: "mutex-unlock", SysClock: "clock", SysLoadModule: "load-module",
		SysUnloadModule: "unload-module", SysRPCCall: "rpc-call", SysRaise: "raise",
		SysKill: "kill", SysSignal: "signal", SysAlloc: "alloc", SysSnap: "snap",
		SysTBWrap: "buffer-wrap", SysRand: "rand", SysMemcpy: "memcpy",
		SysGetTID: "gettid", SysYield: "yield", SysRPCRecv: "rpc-recv",
		SysRPCReply: "rpc-reply", SysIORead: "io-read", SysIOWrite: "io-write",
		SysNetSend: "net-send", SysGetArg: "getarg", SysPrintInt: "print-int",
	}
	if n, ok := names[num]; ok {
		return n
	}
	return fmt.Sprintf("sys(%d)", num)
}

// Instr is a decoded instruction.
type Instr struct {
	Op      Op
	A, B, C uint8
	Imm     int32
}

// Size is the encoded size of one instruction in bytes.
const Size = 8

// Encode appends the 8-byte encoding of in to dst and returns the result.
func Encode(dst []byte, in Instr) []byte {
	var b [Size]byte
	b[0] = byte(in.Op)
	b[1] = in.A
	b[2] = in.B
	b[3] = in.C
	binary.LittleEndian.PutUint32(b[4:], uint32(in.Imm))
	return append(dst, b[:]...)
}

// Decode decodes one instruction from b.
func Decode(b []byte) (Instr, error) {
	if len(b) < Size {
		return Instr{}, fmt.Errorf("isa: short instruction: %d bytes", len(b))
	}
	in := Instr{
		Op:  Op(b[0]),
		A:   b[1],
		B:   b[2],
		C:   b[3],
		Imm: int32(binary.LittleEndian.Uint32(b[4:])),
	}
	if in.Op >= numOps {
		return Instr{}, fmt.Errorf("isa: bad opcode %d", in.Op)
	}
	return in, nil
}

// DecodeAll decodes a code section.
func DecodeAll(b []byte) ([]Instr, error) {
	if len(b)%Size != 0 {
		return nil, fmt.Errorf("isa: code length %d not a multiple of %d", len(b), Size)
	}
	code := make([]Instr, 0, len(b)/Size)
	for off := 0; off < len(b); off += Size {
		in, err := Decode(b[off:])
		if err != nil {
			return nil, fmt.Errorf("isa: at instruction %d: %w", off/Size, err)
		}
		code = append(code, in)
	}
	return code, nil
}

var opNames = [numOps]string{
	NOP: "nop", MOVI: "movi", MOV: "mov",
	ADD: "add", SUB: "sub", MUL: "mul", DIV: "div", MOD: "mod",
	AND: "and", OR: "or", XOR: "xor", SHL: "shl", SHR: "shr",
	ADDI: "addi", NEG: "neg", NOT: "not",
	CMPEQ: "cmpeq", CMPNE: "cmpne", CMPLT: "cmplt", CMPLE: "cmple",
	BEQ: "beq", BNE: "bne", BLT: "blt", BLE: "ble", BGT: "bgt", BGE: "bge",
	BEQI: "beqi", BNEI: "bnei",
	JMP: "jmp", JTAB: "jtab", CALL: "call", CALX: "calx", CALR: "calr", RET: "ret",
	LD: "ld", ST: "st", LD4: "ld4", ST4: "st4", STI4: "sti4", ORM4: "orm4",
	PUSH: "push", POP: "pop",
	GADDR: "gaddr", LDFN: "ldfn",
	TLSLD: "tlsld", TLSST: "tlsst",
	SYS: "sys", HLT: "hlt",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsCondBranch reports whether op is a conditional branch.
func (op Op) IsCondBranch() bool {
	switch op {
	case BEQ, BNE, BLT, BLE, BGT, BGE, BEQI, BNEI:
		return true
	}
	return false
}

// IsBlockEnd reports whether op always ends a basic block.
func (op Op) IsBlockEnd() bool {
	switch op {
	case JMP, JTAB, RET, HLT:
		return true
	}
	return op.IsCondBranch() || op.IsCall()
}

// IsCall reports whether op is any form of call.
func (op Op) IsCall() bool { return op == CALL || op == CALX || op == CALR }

// NoReturn reports whether the instruction never falls through
// (process-exit syscall).
func (in Instr) NoReturn() bool { return in.Op == SYS && in.Imm == SysExit }

// HasCodeTarget reports whether the instruction's Imm is a code
// address that the loader (and the instrumenter's relayout pass) must
// rebase.
func (op Op) HasCodeTarget() bool {
	switch op {
	case JMP, CALL:
		return true
	}
	return op.IsCondBranch()
}

// Reads returns the registers read by in. The result is appended to
// regs and returned.
func (in Instr) Reads(regs []uint8) []uint8 {
	switch in.Op {
	case MOV, ADDI, NEG, NOT, LD, LD4, TLSST:
		regs = append(regs, in.B)
	case ADD, SUB, MUL, DIV, MOD, AND, OR, XOR, SHL, SHR,
		CMPEQ, CMPNE, CMPLT, CMPLE:
		regs = append(regs, in.B, in.C)
	case BEQ, BNE, BLT, BLE, BGT, BGE:
		regs = append(regs, in.A, in.B)
	case BEQI, BNEI, JTAB, CALR, PUSH, STI4, ORM4:
		regs = append(regs, in.A)
	case ST, ST4:
		regs = append(regs, in.A, in.B)
	case SYS:
		regs = append(regs, A1, A2, A3, A4)
	case POP, RET:
		regs = append(regs, SP)
	}
	switch in.Op {
	case TLSST:
		regs = append(regs, in.A)
	case LD, LD4:
		// base already appended (B)
	case PUSH, CALL, CALX, CALR:
		regs = append(regs, SP)
	}
	return regs
}

// Writes returns the registers written by in, appended to regs.
func (in Instr) Writes(regs []uint8) []uint8 {
	switch in.Op {
	case MOVI, MOV, ADD, SUB, MUL, DIV, MOD, AND, OR, XOR, SHL, SHR,
		ADDI, NEG, NOT, CMPEQ, CMPNE, CMPLT, CMPLE,
		LD, LD4, GADDR, LDFN, TLSLD, POP:
		regs = append(regs, in.A)
	case SYS:
		regs = append(regs, RV)
	case CALL, CALX, CALR:
		// A call clobbers all caller-saved registers from the
		// caller's perspective; liveness handles this at the
		// call site, not here. The call itself writes SP.
		regs = append(regs, SP)
	case PUSH, RET:
		regs = append(regs, SP)
	}
	if in.Op == POP {
		regs = append(regs, SP)
	}
	return regs
}

// String renders in as assembly text.
func (in Instr) String() string {
	r := func(n uint8) string { return fmt.Sprintf("r%d", n) }
	switch in.Op {
	case NOP, RET:
		return in.Op.String()
	case HLT:
		return "hlt"
	case MOVI:
		return fmt.Sprintf("movi %s, %d", r(in.A), in.Imm)
	case MOV, NEG, NOT:
		return fmt.Sprintf("%s %s, %s", in.Op, r(in.A), r(in.B))
	case ADD, SUB, MUL, DIV, MOD, AND, OR, XOR, SHL, SHR,
		CMPEQ, CMPNE, CMPLT, CMPLE:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, r(in.A), r(in.B), r(in.C))
	case ADDI:
		return fmt.Sprintf("addi %s, %s, %d", r(in.A), r(in.B), in.Imm)
	case BEQ, BNE, BLT, BLE, BGT, BGE:
		return fmt.Sprintf("%s %s, %s, @%d", in.Op, r(in.A), r(in.B), in.Imm)
	case BEQI, BNEI:
		return fmt.Sprintf("%s %s, %d, @%d", in.Op, r(in.A), int8(in.C), in.Imm)
	case JMP:
		return fmt.Sprintf("jmp @%d", in.Imm)
	case JTAB:
		return fmt.Sprintf("jtab %s, %d", r(in.A), in.C)
	case CALL:
		return fmt.Sprintf("call @%d", in.Imm)
	case CALX:
		return fmt.Sprintf("calx import[%d]", in.Imm)
	case CALR:
		return fmt.Sprintf("calr %s", r(in.A))
	case LD, LD4:
		return fmt.Sprintf("%s %s, [%s%+d]", in.Op, r(in.A), r(in.B), in.Imm)
	case ST, ST4:
		return fmt.Sprintf("%s [%s%+d], %s", in.Op, r(in.A), in.Imm, r(in.B))
	case STI4:
		return fmt.Sprintf("sti4 [%s], %#x", r(in.A), uint32(in.Imm))
	case ORM4:
		return fmt.Sprintf("orm4 [%s], %#x", r(in.A), uint32(in.Imm))
	case PUSH, POP:
		return fmt.Sprintf("%s %s", in.Op, r(in.A))
	case GADDR:
		return fmt.Sprintf("gaddr %s, data%+d", r(in.A), in.Imm)
	case LDFN:
		return fmt.Sprintf("ldfn %s, fn[%d]", r(in.A), in.Imm)
	case TLSLD:
		return fmt.Sprintf("tlsld %s, tls[%d]", r(in.A), in.C)
	case TLSST:
		return fmt.Sprintf("tlsst tls[%d], %s", in.C, r(in.A))
	case SYS:
		return fmt.Sprintf("sys %d", in.Imm)
	}
	return fmt.Sprintf("%s a=%d b=%d c=%d imm=%d", in.Op, in.A, in.B, in.C, in.Imm)
}

// Cost is the cycle cost charged by the VM for executing in.
// Memory references cost extra; TLS access is deliberately slower than
// a register move (the paper notes TLS access is "typically fairly
// slow"); DIV is expensive. Syscall costs are charged by the VM on top
// of the base cost here.
func (in Instr) Cost() int64 {
	switch in.Op {
	case LD, ST, LD4, ST4, STI4, ORM4, PUSH, POP:
		return 2
	case MUL:
		return 3
	case DIV, MOD:
		return 8
	case CALL, CALX, CALR, RET:
		return 2
	case TLSLD, TLSST:
		return 2
	case JTAB:
		return 2
	case SYS:
		return 4
	}
	return 1
}
