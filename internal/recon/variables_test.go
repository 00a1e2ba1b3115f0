package recon

import (
	"strings"
	"testing"

	"traceback/internal/core"
	"traceback/internal/minic"
	"traceback/internal/tbrt"
	"traceback/internal/vm"
)

// TestVariablesView: the snap's data-segment dump plus the mapfile's
// symbol table reproduce variable values at the point of the snap
// (paper §3.6).
func TestVariablesView(t *testing.T) {
	src := `int counter;
int table[4];
int main() {
	counter = 42;
	table[0] = 10;
	table[1] = 11;
	table[2] = 12;
	table[3] = 13;
	int z = 0;
	exit(1 / z);
}`
	mod, err := minic.Compile("app", "app.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Instrument(mod, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := vm.NewWorld(8)
	mach := w.NewMachine("h", 0)
	p, rt, err := tbrt.NewProcess(mach, "app", tbrt.Config{Policy: tbrt.DefaultPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	p.Load(res.Module)
	p.StartMain(0)
	vm.RunProcess(p, 100000)
	if len(rt.Snaps()) == 0 {
		t.Fatal("no snap")
	}
	s := rt.Snaps()[0]
	maps := NewMapSet(res.Map)
	vars := Variables(s, maps)
	byName := map[string][]int64{}
	for _, v := range vars {
		byName[v.Name] = v.Values
	}
	if got := byName["counter"]; len(got) != 1 || got[0] != 42 {
		t.Errorf("counter = %v, want [42]", got)
	}
	if got := byName["table"]; len(got) != 4 || got[0] != 10 || got[3] != 13 {
		t.Errorf("table = %v, want [10 11 12 13]", got)
	}
	var sb strings.Builder
	RenderVariables(&sb, s, maps)
	out := sb.String()
	if !strings.Contains(out, "counter = 42") || !strings.Contains(out, "table = [10, 11, 12, 13]") {
		t.Errorf("render output:\n%s", out)
	}
}

// TestVariablesViewNoDump: on a snap whose modules carry no memory
// dump, the view degrades gracefully.
func TestVariablesViewNoDump(t *testing.T) {
	src := `int g;
int main() { g = 7; exit(0); }`
	mod, err := minic.Compile("app", "app.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Instrument(mod, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := vm.NewWorld(8)
	mach := w.NewMachine("h", 0)
	p, rt, err := tbrt.NewProcess(mach, "app", tbrt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p.Load(res.Module)
	p.StartMain(0)
	vm.RunProcess(p, 100000)
	s := rt.PostMortemSnap()
	for i := range s.Modules {
		s.Modules[i].DataDump = nil
	}
	if vars := Variables(s, NewMapSet(res.Map)); len(vars) != 0 {
		t.Errorf("vars = %v without a memory dump", vars)
	}
	var sb strings.Builder
	RenderVariables(&sb, s, NewMapSet(res.Map))
	if !strings.Contains(sb.String(), "no variable values") {
		t.Error("missing graceful no-dump message")
	}
}
