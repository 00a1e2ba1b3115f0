package minic

import (
	"strings"
	"testing"

	"traceback/internal/mvm"
	"traceback/internal/recon"
	"traceback/internal/vm"
)

func runManaged(t *testing.T, src string, args ...int64) (*mvm.VM, *mvm.MThread) {
	t.Helper()
	mod, err := CompileManaged("app", "App.cs", src)
	if err != nil {
		t.Fatal(err)
	}
	w := vm.NewWorld(17)
	mach := w.NewMachine("clr", 0)
	v, err := mvm.New(mach, nil, "clr-app", mvm.RuntimeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Load(mod); err != nil {
		t.Fatal(err)
	}
	th, err := v.Start("main", args...)
	if err != nil {
		t.Fatal(err)
	}
	v.Run(2_000_000, nil)
	return v, th
}

func TestManagedArithmetic(t *testing.T) {
	_, th := runManaged(t, `int main() {
	int a = 6;
	int b = 7;
	return a * b - (10 / 3) + (1 << 3) - (9 >> 1) + (15 & 9) + (8 | 1) + (5 ^ 3);
}`)
	// 42 - 3 + 8 - 4 + 9 + 9 + 6 = 67
	if th.Result != 67 {
		t.Errorf("result = %d, want 67", th.Result)
	}
}

func TestManagedControlFlow(t *testing.T) {
	_, th := runManaged(t, `int main() {
	int sum = 0;
	for (int i = 0; i < 20; i = i + 1) {
		if (i % 2 == 0) continue;
		if (i > 15) break;
		sum = sum + i;
	}
	int j = 0;
	while (j < 5) { j = j + 1; }
	switch (j) {
	case 5: sum = sum + 100;
	default: sum = 0;
	}
	return sum;
}`)
	// odds 1..15 = 64; +100 = 164
	if th.Result != 164 {
		t.Errorf("result = %d, want 164", th.Result)
	}
}

func TestManagedComparisonsAndLogic(t *testing.T) {
	_, th := runManaged(t, `int main() {
	int n = 0;
	if (3 < 5 && 5 <= 5) n = n + 1;
	if (7 > 2 || 0) n = n + 1;
	if (2 >= 3) n = n + 100;
	if (!0) n = n + 1;
	if (4 == 4 && 5 != 6) n = n + 1;
	return n;
}`)
	if th.Result != 4 {
		t.Errorf("result = %d, want 4", th.Result)
	}
}

func TestManagedShortCircuit(t *testing.T) {
	_, th := runManaged(t, `int g;
int bump() { g = g + 1; return 1; }
int main() {
	int x = 0 && bump();
	int y = 1 || bump();
	return g * 10 + x + y;
}`)
	if th.Result != 1 {
		t.Errorf("result = %d, want 1 (bump never called)", th.Result)
	}
}

func TestManagedStaticsAndArrays(t *testing.T) {
	_, th := runManaged(t, `int total;
int table[8];
int main() {
	for (int i = 0; i < 8; i = i + 1) table[i] = i * i;
	total = 0;
	for (int i = 0; i < 8; i = i + 1) total = total + table[i];
	return total + len(table);
}`)
	want := int64(0)
	for i := int64(0); i < 8; i++ {
		want += i * i
	}
	want += 8
	if th.Result != want {
		t.Errorf("result = %d, want %d", th.Result, want)
	}
}

func TestManagedLocalArrays(t *testing.T) {
	_, th := runManaged(t, `int main() {
	int buf[4];
	buf[0] = 5;
	buf[3] = 7;
	return buf[0] + buf[3] + buf[1];
}`)
	if th.Result != 12 {
		t.Errorf("result = %d, want 12", th.Result)
	}
}

func TestManagedBoundsCheckThrows(t *testing.T) {
	// The same source that would corrupt memory natively throws
	// ArrayIndexOutOfBoundsException here — the managed-platform
	// semantics difference the paper's Figure 5 turns on.
	_, th := runManaged(t, `int table[4];
int main() {
	table[9] = 1;
	return 0;
}`)
	if th.Uncaught != mvm.ExcBounds {
		t.Errorf("uncaught = %d, want ArrayIndexOutOfBounds", th.Uncaught)
	}
}

func TestManagedDivZeroThrows(t *testing.T) {
	_, th := runManaged(t, `int main() {
	int z = 0;
	return 5 / z;
}`)
	if th.Uncaught != mvm.ExcArith {
		t.Errorf("uncaught = %d, want ArithmeticException", th.Uncaught)
	}
}

func TestManagedExitHalts(t *testing.T) {
	v, _ := runManaged(t, `int main() {
	exit(42);
	return 7;
}`)
	if !v.Halted || v.HaltCode != 42 {
		t.Errorf("halted=%v code=%d", v.Halted, v.HaltCode)
	}
}

func TestManagedRecursion(t *testing.T) {
	_, th := runManaged(t, `int fib(int n) {
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}
int main() { return fib(12); }`)
	if th.Result != 144 {
		t.Errorf("fib(12) = %d, want 144", th.Result)
	}
}

func TestManagedForbidsRawMemory(t *testing.T) {
	for _, src := range []string{
		`int main() { return peek(8); }`,
		`int main() { poke(8, 1); return 0; }`,
		`int g; int main() { return &g; }`,
		`int main() { memcpy(0, 0, 8); return 0; }`,
		`int main() { return alloc(8); }`,
	} {
		if _, err := CompileManaged("bad", "bad.cs", src); err == nil {
			t.Errorf("managed backend accepted %q", src)
		}
	}
}

func TestManagedPrint(t *testing.T) {
	v, _ := runManaged(t, `int main() {
	print("managed says: ");
	print_int(99);
	return 0;
}`)
	out := string(v.Out)
	if !strings.Contains(out, "managed says: ") || !strings.Contains(out, "99") {
		t.Errorf("out = %q", out)
	}
}

// TestSameSourceBothBackends: a pure computation compiled natively
// and managed gives identical results — the MSIL/native dual of the
// paper's §3.3.
func TestSameSourceBothBackends(t *testing.T) {
	src := `int acc;
int step(int x) {
	if (x % 3 == 0) return x * 2;
	return x + 1;
}
int main() {
	acc = 0;
	for (int i = 0; i < 50; i = i + 1) {
		acc = (acc + step(i)) % 10007;
	}
	exit(acc);
}`
	// Native.
	nmod, err := Compile("both", "both.c", src)
	if err != nil {
		t.Fatal(err)
	}
	w := vm.NewWorld(17)
	mach := w.NewMachine("m", 0)
	p := mach.NewProcess("both", nil)
	p.Load(nmod)
	p.StartMain(0)
	if err := vm.RunProcess(p, 1_000_000); err != nil {
		t.Fatal(err)
	}
	// Managed.
	v, _ := runManaged(t, src)
	if !v.Halted || v.HaltCode != int64(p.ExitCode) {
		t.Errorf("native exit %d, managed halt %d", p.ExitCode, v.HaltCode)
	}
}

// TestManagedSourceTraces: the managed compilation carries line info
// through instrumentation to reconstruction.
func TestManagedSourceTraces(t *testing.T) {
	src := `int work(int n) {
	int s = 0;
	for (int i = 0; i < n; i = i + 1) {
		s = s + i;
	}
	return s;
}
int main() {
	int r = work(5);
	return r;
}`
	mod, err := CompileManaged("traced", "Traced.cs", src)
	if err != nil {
		t.Fatal(err)
	}
	inst, mf, err := mvm.Instrument(mod, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := vm.NewWorld(17)
	mach := w.NewMachine("clr", 0)
	v, err := mvm.New(mach, nil, "clr", mvm.RuntimeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	v.Load(inst)
	th, _ := v.Start("main")
	if res, err := v.Join(th, 1_000_000); err != nil || res != 10 {
		t.Fatalf("res=%d err=%v", res, err)
	}
	s := v.Runtime().TakeSnap("post")
	pt, err := recon.Reconstruct(s, recon.NewMapSet(mf))
	if err != nil {
		t.Fatal(err)
	}
	tt, _ := pt.ThreadByTID(1)
	seen := map[uint32]bool{}
	for _, e := range tt.Events {
		if e.Kind == recon.EvLine && e.File == "Traced.cs" {
			seen[e.Line] = true
		}
	}
	// Line 1 carries no code (the declaration line); the body lines
	// and the call site must all appear.
	for _, line := range []uint32{2, 3, 4, 9} {
		if !seen[line] {
			t.Errorf("line %d missing from managed trace (have %v)", line, seen)
		}
	}
}
