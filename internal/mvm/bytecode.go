// Package mvm is the managed-language substrate: a stack-machine
// bytecode VM standing in for the paper's JVM/.NET runtimes. Managed
// code is instrumented at the intermediate-code level (paper §2.4):
// DAG records as in native code, plus lightweight probes at source
// line boundaries so exception reports are line-accurate even though
// the "JIT artifact" exception context cannot be mapped to a
// bytecode. Managed and native code in one process are traced as a
// simple form of distributed tracing (paper §3.3): the managed
// runtime keeps its own trace buffers and runtime ID, and JNI-style
// native calls are fused into logical threads via SYNC records
// exactly like RPCs.
package mvm

import (
	"crypto/md5"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Op is a managed bytecode opcode.
type Op uint8

const (
	NOP Op = iota
	// Stack/locals. A is the local index or constant-pool index.
	CONST  // push Imm
	LOADL  // push locals[A]
	STOREL // locals[A] = pop
	DUP
	POP

	// Arithmetic. Pops two, pushes one. DIV/MOD throw ExcArith.
	ADD
	SUB
	MUL
	DIV
	MOD
	AND
	OR
	XOR
	SHL
	SHR
	NEG
	CMPEQ
	CMPNE
	CMPLT
	CMPLE

	// Control flow. Imm is a method-relative bytecode index.
	GOTO
	IFZ  // pop; branch if zero
	IFNZ // pop; branch if nonzero

	// Calls. Imm is a method index; arguments are popped (arity from
	// the callee), result pushed.
	CALL
	RET // pop return value

	// Arrays. NEWARR pops length (throws ExcNegSize if < 0); ALOAD
	// pops (ref, idx) and pushes the element, throwing ExcNull /
	// ExcBounds; ASTORE pops (ref, idx, val).
	NEWARR
	ALOAD
	ASTORE
	ARRLEN

	// THROW pops an exception code.
	THROW

	// CALLNAT calls a native (ISA) function through the JNI bridge;
	// Imm indexes the module's native-binding table. Arguments are
	// popped per the binding's arity; the native return value is
	// pushed.
	CALLNAT

	// Builtins.
	PRINT    // pop; print decimal
	PRINTS   // print constant-pool string Imm
	CLOCKB   // push machine clock
	RANDB    // push PRNG value
	SLEEPB   // pop; sleep n cycles; throws ExcIllegalArg if negative
	IOREAD   // pop size; charge disk-read cycles
	NETSENDB // pop size; charge network cycles

	// Statics: per-module static fields (the managed analog of
	// globals). A is the static slot index.
	SLOAD  // push statics[A]
	SSTORE // statics[A] = pop

	// SWAP exchanges the two top stack slots.
	SWAP

	// HALT pops a value and terminates the whole managed VM with it
	// (System.exit).
	HALT

	// Probes, inserted by the instrumenter only.
	PROBEH // Imm = pre-shifted DAG record word
	PROBEL // Imm = bit mask ORed into the current record
)

// Managed exception codes.
const (
	ExcArith       = 101 // ArithmeticException
	ExcNull        = 102 // NullPointerException
	ExcBounds      = 103 // ArrayIndexOutOfBoundsException
	ExcNegSize     = 104 // NegativeArraySizeException
	ExcIllegalArg  = 105 // IllegalArgumentException (negative sleep)
	ExcNativeDied  = 106 // native callee crashed under a JNI call
	ExcInterrupted = 107 // asynchronous interrupt (VM.Interrupt)
)

// ExcName names a managed exception code.
func ExcName(code int) string {
	switch code {
	case ExcArith:
		return "ArithmeticException"
	case ExcNull:
		return "NullPointerException"
	case ExcBounds:
		return "ArrayIndexOutOfBoundsException"
	case ExcNegSize:
		return "NegativeArraySizeException"
	case ExcIllegalArg:
		return "IllegalArgumentException"
	case ExcNativeDied:
		return "NativeCrashError"
	case ExcInterrupted:
		return "InterruptedException"
	}
	return fmt.Sprintf("ManagedException(%d)", code)
}

// Instr is one bytecode instruction.
type Instr struct {
	Op  Op
	A   uint16
	Imm int32
}

// LineEntry maps bytecode index ranges to source lines.
type LineEntry struct {
	Index uint32
	Line  uint32
}

// ExcEntry is one exception-table row: exceptions raised in
// [From, To) transfer to Handler. Code 0 catches everything.
type ExcEntry struct {
	From, To uint32
	Handler  uint32
	Code     int32
}

// NativeBinding names a native function a managed module may call via
// CALLNAT.
type NativeBinding struct {
	Module string // native module name ("" = any)
	Name   string
	Arity  int
}

// Method is one managed method.
type Method struct {
	Name    string
	NArgs   int
	NLocals int // including args
	Code    []Instr
	Lines   []LineEntry
	Exc     []ExcEntry
}

// Module is a managed "class file".
type Module struct {
	Name    string
	File    string
	Methods []*Method
	Consts  []string
	Natives []NativeBinding
	// NStatics is the number of static field slots; StaticNames (same
	// length, optional) names them for the variables view.
	NStatics    int
	StaticNames []string

	Instrumented bool
	DAGCount     uint32
}

// MethodByName finds a method.
func (m *Module) MethodByName(name string) (*Method, int, bool) {
	for i, me := range m.Methods {
		if me.Name == name {
			return me, i, true
		}
	}
	return nil, 0, false
}

// Checksum hashes the module's stable content (code + method table).
func (m *Module) Checksum() string {
	h := md5.New()
	var b [8]byte
	for _, me := range m.Methods {
		fmt.Fprintf(h, "%s/%d/%d;", me.Name, me.NArgs, me.NLocals)
		for _, in := range me.Code {
			b[0] = byte(in.Op)
			binary.LittleEndian.PutUint16(b[1:], in.A)
			binary.LittleEndian.PutUint32(b[3:], uint32(in.Imm))
			h.Write(b[:])
		}
	}
	for _, c := range m.Consts {
		fmt.Fprintf(h, "%q", c)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CodeLen is the total bytecode length (methods concatenated), the
// module's span in the managed code-address space.
func (m *Module) CodeLen() uint32 {
	var n uint32
	for _, me := range m.Methods {
		n += uint32(len(me.Code))
	}
	return n
}

// MethodOffset returns the flattened code offset of method i.
func (m *Module) MethodOffset(i int) uint32 {
	var n uint32
	for j := 0; j < i; j++ {
		n += uint32(len(m.Methods[j].Code))
	}
	return n
}

// LineFor maps a method-relative bytecode index to a line.
func (me *Method) LineFor(idx uint32) (uint32, bool) {
	line := uint32(0)
	ok := false
	for _, e := range me.Lines {
		if e.Index > idx {
			break
		}
		line, ok = e.Line, true
	}
	return line, ok
}

// Validate checks structural invariants.
func (m *Module) Validate() error {
	for _, me := range m.Methods {
		n := uint32(len(me.Code))
		if me.NArgs > me.NLocals {
			return fmt.Errorf("mvm: %s.%s: %d args > %d locals", m.Name, me.Name, me.NArgs, me.NLocals)
		}
		for i, in := range me.Code {
			switch in.Op {
			case GOTO, IFZ, IFNZ:
				if in.Imm < 0 || uint32(in.Imm) >= n {
					return fmt.Errorf("mvm: %s.%s: branch at %d targets %d/%d", m.Name, me.Name, i, in.Imm, n)
				}
			case CALL:
				if in.Imm < 0 || int(in.Imm) >= len(m.Methods) {
					return fmt.Errorf("mvm: %s.%s: call at %d to method %d/%d", m.Name, me.Name, i, in.Imm, len(m.Methods))
				}
			case CALLNAT:
				if in.Imm < 0 || int(in.Imm) >= len(m.Natives) {
					return fmt.Errorf("mvm: %s.%s: native call at %d to binding %d/%d", m.Name, me.Name, i, in.Imm, len(m.Natives))
				}
			case LOADL, STOREL:
				if int(in.A) >= me.NLocals {
					return fmt.Errorf("mvm: %s.%s: local %d/%d at %d", m.Name, me.Name, in.A, me.NLocals, i)
				}
			case SLOAD, SSTORE:
				if int(in.A) >= m.NStatics {
					return fmt.Errorf("mvm: %s.%s: static %d/%d at %d", m.Name, me.Name, in.A, m.NStatics, i)
				}
			case PRINTS:
				if in.Imm < 0 || int(in.Imm) >= len(m.Consts) {
					return fmt.Errorf("mvm: %s.%s: string const %d/%d", m.Name, me.Name, in.Imm, len(m.Consts))
				}
			}
		}
		for _, e := range me.Exc {
			if e.From >= e.To || e.To > n || e.Handler >= n {
				return fmt.Errorf("mvm: %s.%s: bad exception entry %+v", m.Name, me.Name, e)
			}
		}
	}
	return nil
}
