package integration_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"traceback/internal/core"
	"traceback/internal/minic"
	"traceback/internal/module"
	"traceback/internal/recon"
	"traceback/internal/scenario"
	"traceback/internal/tbrt"
	"traceback/internal/vm"
	"traceback/internal/workload"
)

// Differential oracle: for randomly generated programs, the line
// sequence TraceBack reconstructs from an INSTRUMENTED run must equal
// the line sequence a perfect per-instruction tracer observes on the
// UNINSTRUMENTED run. This validates the whole pipeline — tiling, bit
// assignment, probe injection, runtime buffering, record mining, and
// path expansion — against ground truth.

// oracleLines runs mod uninstrumented with a per-step tracer and
// returns the consecutive-duplicate-collapsed (line) sequence of
// thread 1.
func oracleLines(t *testing.T, mod *module.Module, arg uint64) ([]uint32, int) {
	t.Helper()
	s := launchApp(t, 99, nil, arg, mod)
	base := s.Procs["app"].Modules[0].CodeBase
	var seq []uint32
	s.World.Machines[0].OnStep = func(th *vm.Thread) {
		if th.TID != 1 {
			return
		}
		_, line, ok := mod.LineFor(uint32(th.PC) - base)
		if ok && (len(seq) == 0 || seq[len(seq)-1] != line) {
			seq = append(seq, line)
		}
	}
	p := runApp(t, s)
	return seq, p.ExitCode
}

// reconLines runs the instrumented module and returns the
// reconstructed, consecutive-duplicate-collapsed line sequence of
// thread 1.
func reconLines(t *testing.T, mod *module.Module, arg uint64) ([]uint32, int) {
	t.Helper()
	res, err := core.Instrument(mod, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Buffers large enough that nothing wraps: the oracle sees the
	// whole history, so reconstruction must too.
	s := launchApp(t, 99, &tbrt.Config{BufferWords: 1 << 19, NumBuffers: 1, SubBuffers: 4}, arg, res.Module)
	p := runApp(t, s)
	seq, truncated := threadLines(t, s, res.Map)
	if truncated {
		t.Fatal("trace truncated despite huge buffer")
	}
	return seq, p.ExitCode
}

// threadLines reconstructs a post-mortem snap of s's "app" and returns
// thread 1's line sequence, consecutive duplicates collapsed, and
// whether its trace was truncated.
func threadLines(t *testing.T, s *scenario.Setup, mf *module.MapFile) ([]uint32, bool) {
	t.Helper()
	pt, err := recon.Reconstruct(s.Runtimes["app"].PostMortemSnap(), recon.NewMapSet(mf))
	if err != nil {
		t.Fatal(err)
	}
	tt, ok := pt.ThreadByTID(1)
	if !ok {
		t.Fatal("no thread 1")
	}
	var seq []uint32
	for _, e := range tt.Events {
		if e.Kind != recon.EvLine {
			continue
		}
		// A Repeat>0 event stands for consecutive re-executions of
		// one line; collapsed it is a single entry, exactly like the
		// oracle's duplicate collapsing — except when the repeats
		// were separated in the oracle by the loop-header line. The
		// oracle collapses only adjacent duplicates, so a repeat of a
		// single-line loop body appears once there too.
		if n := len(seq); n == 0 || seq[n-1] != e.Line {
			seq = append(seq, e.Line)
		}
	}
	return seq, tt.Truncated
}

func diffSeqs(a, b []uint32) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 4
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("first divergence at %d: oracle ...%v..., recon ...%v...",
				i, a[lo:min(i+4, len(a))], b[lo:min(i+4, len(b))])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("length mismatch: oracle %d, recon %d", len(a), len(b))
	}
	return ""
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// progGen emits random but well-formed, terminating MiniC programs.
type progGen struct {
	rng   *rand.Rand
	sb    strings.Builder
	depth int
}

func (g *progGen) linef(format string, args ...interface{}) {
	fmt.Fprintf(&g.sb, format+"\n", args...)
}

// genExpr builds an expression over the locals a,b,c and globals.
func (g *progGen) genExpr(depth int) string {
	if depth > 2 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(4) {
		case 0:
			return fmt.Sprintf("%d", g.rng.Intn(100)+1)
		case 1:
			return []string{"a", "b", "c"}[g.rng.Intn(3)]
		case 2:
			return fmt.Sprintf("gdata[%s & 15]", []string{"a", "b", "c"}[g.rng.Intn(3)])
		default:
			return fmt.Sprintf("helper%d(%s)", g.rng.Intn(3), []string{"a", "b", "c"}[g.rng.Intn(3)])
		}
	}
	op := []string{"+", "-", "*", "&", "|", "^"}[g.rng.Intn(6)]
	return fmt.Sprintf("(%s %s %s)", g.genExpr(depth+1), op, g.genExpr(depth+1))
}

func (g *progGen) genStmt(depth int) {
	switch g.rng.Intn(7) {
	case 0, 1:
		v := []string{"a", "b", "c"}[g.rng.Intn(3)]
		g.linef("%s = %s %% 1000;", v, g.genExpr(0))
	case 2:
		g.linef("gdata[%s & 15] = %s %% 997;", []string{"a", "b"}[g.rng.Intn(2)], g.genExpr(0))
	case 3:
		g.linef("if (%s %% 3 == %d) {", g.genExpr(1), g.rng.Intn(3))
		g.genStmt(depth + 1)
		if g.rng.Intn(2) == 0 {
			g.linef("} else {")
			g.genStmt(depth + 1)
		}
		g.linef("}")
	case 4:
		if depth < 2 {
			n := g.rng.Intn(6) + 2
			// A unique loop counter avoids shadowing issues.
			g.linef("for (int i%d = 0; i%d < %d; i%d = i%d + 1) {", depth, depth, n, depth, depth)
			g.genStmt(depth + 1)
			g.linef("}")
		} else {
			g.linef("c = c + 1;")
		}
	case 5:
		g.linef("switch (%s & 3) {", []string{"a", "b", "c"}[g.rng.Intn(3)])
		for k := 0; k < 4; k++ {
			g.linef("case %d: a = a + %d;", k, k+1)
		}
		g.linef("}")
	default:
		g.linef("b = helper%d(%s %% 50);", g.rng.Intn(3), g.genExpr(1))
	}
}

func (g *progGen) generate(seed int64) string {
	g.rng = rand.New(rand.NewSource(seed))
	g.sb.Reset()
	g.linef("int gdata[16];")
	for h := 0; h < 3; h++ {
		g.linef("int helper%d(int x) {", h)
		g.linef("int r = x * %d + %d;", h+2, h*7+1)
		g.linef("if (x > %d) { r = r - x; }", g.rng.Intn(40))
		g.linef("return r %% 211;")
		g.linef("}")
	}
	g.linef("int main(int a) {")
	g.linef("int b = %d;", g.rng.Intn(50))
	g.linef("int c = 1;")
	nStmts := g.rng.Intn(8) + 4
	for i := 0; i < nStmts; i++ {
		g.genStmt(0)
	}
	g.linef("exit((a + b + c) %% 251);")
	g.linef("}")
	return g.sb.String()
}

// TestDifferentialLineTrace is the oracle comparison over many random
// programs and inputs.
func TestDifferentialLineTrace(t *testing.T) {
	gen := &progGen{}
	programs := 40
	if testing.Short() {
		programs = 8
	}
	for seed := int64(0); seed < int64(programs); seed++ {
		src := gen.generate(seed * 7717)
		mod, err := minic.Compile("fuzz", "fuzz.mc", src)
		if err != nil {
			t.Fatalf("seed %d: %v\nsource:\n%s", seed, err, src)
		}
		for _, arg := range []uint64{0, 3, 17} {
			want, exitO := oracleLines(t, mod, arg)
			got, exitR := reconLines(t, mod, arg)
			if exitO != exitR {
				t.Fatalf("seed %d arg %d: exit codes differ: oracle %d, instrumented %d",
					seed, arg, exitO, exitR)
			}
			if d := diffSeqs(want, got); d != "" {
				t.Fatalf("seed %d arg %d: %s\nsource:\n%s", seed, arg, d, src)
			}
		}
	}
}

// TestDifferentialSpecKernels applies the same oracle to the real
// benchmark kernels at a small scale — the most complex CFGs we have.
func TestDifferentialSpecKernels(t *testing.T) {
	kernels := []struct {
		name string
		arg  uint64
	}{
		{"gzip", 3}, {"gcc", 2}, {"parser", 5}, {"perlbmk", 6},
		{"vortex", 2}, {"crafty", 4}, {"vpr", 2}, {"bzip2", 1},
	}
	for _, k := range kernels {
		k := k
		t.Run(k.name, func(t *testing.T) {
			src := specSource(t, k.name)
			mod, err := minic.Compile(k.name, k.name+".c", src)
			if err != nil {
				t.Fatal(err)
			}
			want, exitO := oracleLines(t, mod, k.arg)
			got, exitR := reconLines(t, mod, k.arg)
			if exitO != exitR {
				t.Fatalf("exit codes differ: %d vs %d", exitO, exitR)
			}
			if d := diffSeqs(want, got); d != "" {
				t.Fatal(d)
			}
		})
	}
}

// specSource fetches a workload kernel's source by name.
func specSource(t *testing.T, name string) string {
	t.Helper()
	p, ok := workload.SpecByName(name)
	if !ok {
		t.Fatalf("no kernel %s", name)
	}
	return p.Src
}
