package scenario

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"traceback/internal/minic"
	"traceback/internal/module"
	"traceback/internal/tbrt"
)

func TestBuildUnknownName(t *testing.T) {
	if _, err := Build("no-such-scenario", Options{}); err == nil || !strings.Contains(err.Error(), `"no-such-scenario"`) {
		t.Errorf("err = %v, want an error naming the scenario", err)
	}
}

// TestBuildsAreByteIdentical: the VM is deterministic, so building and
// running a scenario twice must harvest byte-identical snaps — the
// property the committed fleet and every dedup gate stand on.
func TestBuildsAreByteIdentical(t *testing.T) {
	harvest := func(name string) [][]byte {
		t.Helper()
		s, err := Build(name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if s.Name != name {
			t.Fatalf("Build(%q) built %q", name, s.Name)
		}
		s.Run(0)
		b, err := s.Collect()
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, sn := range b.Snaps {
			var buf bytes.Buffer
			if err := sn.Save(&buf); err != nil {
				t.Fatal(err)
			}
			out = append(out, buf.Bytes())
		}
		return out
	}
	for _, b := range Builders {
		first, second := harvest(b.Name), harvest(b.Name)
		if len(first) == 0 || !reflect.DeepEqual(first, second) {
			t.Errorf("%s: two builds harvested %d and %d snap(s) that are not byte-identical", b.Name, len(first), len(second))
		}
	}
}

func TestRolesSorted(t *testing.T) {
	s, err := Build("crossmachine", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Roles(), []string{"petclient", "petstore"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Roles() = %v, want %v", got, want)
	}
}

// TestLaunchNoMainUninstrumented: a nil Config launches a process with
// no runtime, a NoMain process gets no thread, and Run returns once
// every started main has exited although the main-less process never
// does.
func TestLaunchNoMainUninstrumented(t *testing.T) {
	mod, err := minic.Compile("app", "app.mc", "int main() { exit(getarg() + 1); }")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Launch(Spec{Seed: 1, Machines: []MachineSpec{{Name: "a"}, {Name: "b", Skew: 10}}, Procs: []ProcSpec{
		{Role: "host", Machine: 1, Modules: []*module.Module{mod}, Config: &tbrt.Config{}, NoMain: true},
		{Role: "app", Modules: []*module.Module{mod}, Arg: 6},
	}})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(1_000_000)
	host, app := s.Procs["host"], s.Procs["app"]
	if !app.Exited || app.ExitCode != 7 || host.Exited || len(host.Threads) != 0 || host.Machine.Name != "b" {
		t.Errorf("app exited %v code %d; host exited %v with %d threads on %s", app.Exited, app.ExitCode, host.Exited, len(host.Threads), host.Machine.Name)
	}
	if _, ok := s.Runtimes["app"]; ok || s.Runtimes["host"] == nil {
		t.Errorf("runtime of app %v, of host %v; want host's only", s.Runtimes["app"], s.Runtimes["host"])
	}
}
