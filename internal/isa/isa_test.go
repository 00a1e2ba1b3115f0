package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	ins := []Instr{
		{Op: NOP},
		{Op: MOVI, A: 3, Imm: -42},
		{Op: ADD, A: 1, B: 2, C: 3},
		{Op: BEQI, A: 5, C: 0xFF, Imm: 1000},
		{Op: STI4, A: 0, Imm: int32(0x80000000 - 0x7FFFF800)},
		{Op: ORM4, A: 7, Imm: 0x2},
		{Op: TLSLD, A: 6, C: TLSSlot},
		{Op: SYS, Imm: 17},
		{Op: HLT},
	}
	var b []byte
	for _, in := range ins {
		b = Encode(b, in)
	}
	if len(b) != len(ins)*Size {
		t.Fatalf("encoded length = %d, want %d", len(b), len(ins)*Size)
	}
	got, err := DecodeAll(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ins {
		if got[i] != ins[i] {
			t.Errorf("instr %d: got %+v want %+v", i, got[i], ins[i])
		}
	}
}

func TestDecodeRejectsBadOpcode(t *testing.T) {
	b := make([]byte, Size)
	b[0] = byte(numOps)
	if _, err := Decode(b); err == nil {
		t.Fatal("decode of bad opcode succeeded")
	}
}

func TestDecodeRejectsShortInput(t *testing.T) {
	if _, err := Decode(make([]byte, Size-1)); err == nil {
		t.Fatal("decode of short input succeeded")
	}
	if _, err := DecodeAll(make([]byte, Size+1)); err == nil {
		t.Fatal("DecodeAll of misaligned input succeeded")
	}
}

// Property: every well-formed instruction round-trips through the
// binary encoding unchanged.
func TestEncodeDecodeQuick(t *testing.T) {
	f := func(op uint8, a, b, c uint8, imm int32) bool {
		in := Instr{Op: Op(op % uint8(numOps)), A: a, B: b, C: c, Imm: imm}
		enc := Encode(nil, in)
		dec, err := Decode(enc)
		return err == nil && dec == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestOpClassification(t *testing.T) {
	cases := []struct {
		op                          Op
		cond, end, call, codeTarget bool
	}{
		{NOP, false, false, false, false},
		{ADD, false, false, false, false},
		{BEQ, true, true, false, true},
		{BNEI, true, true, false, true},
		{JMP, false, true, false, true},
		{JTAB, false, true, false, false},
		{CALL, false, true, true, true},
		{CALX, false, true, true, false},
		{CALR, false, true, true, false},
		{RET, false, true, false, false},
		{HLT, false, true, false, false},
		{SYS, false, false, false, false},
	}
	for _, c := range cases {
		if got := c.op.IsCondBranch(); got != c.cond {
			t.Errorf("%v.IsCondBranch() = %v, want %v", c.op, got, c.cond)
		}
		if got := c.op.IsBlockEnd(); got != c.end {
			t.Errorf("%v.IsBlockEnd() = %v, want %v", c.op, got, c.end)
		}
		if got := c.op.IsCall(); got != c.call {
			t.Errorf("%v.IsCall() = %v, want %v", c.op, got, c.call)
		}
		if got := c.op.HasCodeTarget(); got != c.codeTarget {
			t.Errorf("%v.HasCodeTarget() = %v, want %v", c.op, got, c.codeTarget)
		}
	}
}

func TestReadsWrites(t *testing.T) {
	has := func(rs []uint8, r uint8) bool {
		for _, x := range rs {
			if x == r {
				return true
			}
		}
		return false
	}
	add := Instr{Op: ADD, A: 1, B: 2, C: 3}
	if r := add.Reads(nil); !has(r, 2) || !has(r, 3) || has(r, 1) {
		t.Errorf("ADD reads = %v", r)
	}
	if w := add.Writes(nil); !has(w, 1) {
		t.Errorf("ADD writes = %v", w)
	}
	st := Instr{Op: ST, A: 4, B: 5, Imm: 8}
	if r := st.Reads(nil); !has(r, 4) || !has(r, 5) {
		t.Errorf("ST reads = %v", r)
	}
	if w := st.Writes(nil); len(w) != 0 {
		t.Errorf("ST writes = %v, want none", w)
	}
	pop := Instr{Op: POP, A: 9}
	if w := pop.Writes(nil); !has(w, 9) || !has(w, SP) {
		t.Errorf("POP writes = %v", w)
	}
	orm := Instr{Op: ORM4, A: 6, Imm: 4}
	if r := orm.Reads(nil); !has(r, 6) {
		t.Errorf("ORM4 reads = %v", r)
	}
	call := Instr{Op: CALL, Imm: 10}
	if r := call.Reads(nil); !has(r, SP) {
		t.Errorf("CALL reads = %v", r)
	}
}

func TestStringCoversAllOps(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		in := Instr{Op: op, A: 1, B: 2, C: 3, Imm: 4}
		if s := in.String(); s == "" {
			t.Errorf("op %d has empty String()", op)
		}
		if s := op.String(); s == "" || s[0] == 'o' && op != OR {
			// every op has a proper lowercase mnemonic
			if s[:3] == "op(" {
				t.Errorf("op %d has no name", op)
			}
		}
	}
}

func TestCostPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		in := Instr{Op: Op(rng.Intn(NumOps))}
		if in.Cost() <= 0 {
			t.Fatalf("cost of %v = %d", in.Op, in.Cost())
		}
	}
	if (Instr{Op: TLSLD}).Cost() <= (Instr{Op: MOV}).Cost() {
		t.Error("TLS access should cost more than a register move")
	}
	if (Instr{Op: DIV}).Cost() <= (Instr{Op: ADD}).Cost() {
		t.Error("DIV should cost more than ADD")
	}
}

func TestSysName(t *testing.T) {
	if SysName(SysMutexLock) != "mutex-lock" {
		t.Errorf("SysName(SysMutexLock) = %q", SysName(SysMutexLock))
	}
	if SysName(9999) == "" {
		t.Error("unknown syscall has empty name")
	}
}

func TestNoReturn(t *testing.T) {
	if !(Instr{Op: SYS, Imm: SysExit}).NoReturn() {
		t.Error("exit syscall should be no-return")
	}
	if (Instr{Op: SYS, Imm: SysWrite}).NoReturn() {
		t.Error("write syscall is not no-return")
	}
}
