package scenario

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
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
