package integration_test

import (
	"testing"

	"traceback/internal/minic"
	"traceback/internal/mvm"
	"traceback/internal/vm"
)

// TestDualBackendDifferential: the same random MiniC source compiled
// by the native backend and the managed backend computes the same
// result — the paper's §3.3 multiple-source-technology story, checked
// mechanically. Both are additionally run INSTRUMENTED to confirm
// neither instrumenter perturbs semantics.
func TestDualBackendDifferential(t *testing.T) {
	gen := &progGen{}
	n := 25
	if testing.Short() {
		n = 6
	}
	for seed := int64(0); seed < int64(n); seed++ {
		src := gen.generate(seed*3391 + 5)
		for _, arg := range []int64{0, 9, 42} {
			native := runNativeExit(t, src, uint64(arg), seed)
			managed := runManagedExit(t, src, arg, false, seed)
			managedI := runManagedExit(t, src, arg, true, seed)
			if native != managed {
				t.Fatalf("seed %d arg %d: native %d vs managed %d\n%s",
					seed, arg, native, managed, src)
			}
			if managed != managedI {
				t.Fatalf("seed %d arg %d: managed instrumentation changed result: %d vs %d",
					seed, arg, managed, managedI)
			}
		}
	}
}

func runNativeExit(t *testing.T, src string, arg uint64, seed int64) int64 {
	t.Helper()
	mod, err := minic.Compile("dual", "dual.mc", src)
	if err != nil {
		t.Fatalf("seed %d native compile: %v\n%s", seed, err, src)
	}
	s := launchApp(t, 1, nil, arg, mod)
	s.Run(10_000_000)
	p := s.Procs["app"]
	if !p.Exited || p.FatalSignal != 0 {
		t.Fatalf("seed %d: native run did not exit cleanly (signal %s)\n%s", seed, vm.SignalName(p.FatalSignal), src)
	}
	return int64(p.ExitCode)
}

func runManagedExit(t *testing.T, src string, arg int64, instrumented bool, seed int64) int64 {
	t.Helper()
	mod, err := minic.CompileManaged("dual", "Dual.cs", src)
	if err != nil {
		t.Fatalf("seed %d managed compile: %v\n%s", seed, err, src)
	}
	if instrumented {
		mod, _, err = mvm.Instrument(mod, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	w := vm.NewWorld(1)
	mach := w.NewMachine("m", 0)
	v := mvm.New(mach, nil, "dual", mvm.RuntimeConfig{})
	if _, err := v.Load(mod); err != nil {
		t.Fatal(err)
	}
	th, err := v.Start("main", arg)
	if err != nil {
		t.Fatal(err)
	}
	v.Run(10_000_000, nil)
	if th.Uncaught != 0 {
		t.Fatalf("seed %d: managed threw %s\n%s", seed, mvm.ExcName(th.Uncaught), src)
	}
	if !v.Halted {
		t.Fatalf("seed %d: managed program never exited", seed)
	}
	return v.HaltCode
}
