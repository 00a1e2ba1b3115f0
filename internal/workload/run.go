package workload

import (
	"fmt"

	"traceback/internal/module"
	"traceback/internal/mvm"
	"traceback/internal/scenario"
	"traceback/internal/tbrt"
	"traceback/internal/vm"
)

// runNative runs m's main(arg) to completion as the one process of a
// fresh world seeded with seed, on a machine named host. A nil cfg
// runs it uninstrumented; otherwise under the TraceBack runtime, with
// the machine reporting to cfg.Telemetry when it is set. A run that
// dies of a signal is an error.
func runNative(m *module.Module, cfg *tbrt.Config, seed int64, host string, arg uint64) (*vm.Process, error) {
	s, err := scenario.Launch(scenario.Spec{Seed: seed, Machines: []scenario.MachineSpec{{Name: host}},
		Procs: []scenario.ProcSpec{{Role: m.Name, Modules: []*module.Module{m}, Config: cfg, Arg: arg}}})
	if err != nil {
		return nil, err
	}
	s.Run(1 << 31)
	if p := s.Procs[m.Name]; p.FatalSignal != 0 {
		return nil, fmt.Errorf("%s faulted: %s", m.Name, vm.SignalName(p.FatalSignal))
	}
	return s.Procs[m.Name], nil
}

// LaunchManaged loads m into a managed runtime named name under cfg,
// on a fresh world seeded with seed and a machine named host, and
// starts one thread at method entry per element of args. Nothing
// runs.
func LaunchManaged(m *mvm.Module, cfg mvm.RuntimeConfig, seed int64, host, name, entry string, args [][]int64) (*mvm.VM, []*mvm.MThread, error) {
	v, err := mvm.New(vm.NewWorld(seed).NewMachine(host, 0), nil, name, cfg)
	if err != nil {
		return nil, nil, err
	}
	if _, err := v.Load(m); err != nil {
		return nil, nil, err
	}
	threads := make([]*mvm.MThread, len(args))
	for i, a := range args {
		th, err := v.Start(entry, a...)
		if err != nil {
			return nil, nil, err
		}
		threads[i] = th
	}
	return v, threads, nil
}

// runManaged launches m as LaunchManaged does and runs until every
// thread is done. A thread ending in an uncaught exception is an
// error.
func runManaged(m *mvm.Module, cfg mvm.RuntimeConfig, seed int64, host, name, entry string, args [][]int64) (*mvm.VM, error) {
	v, threads, err := LaunchManaged(m, cfg, seed, host, name, entry, args)
	if err != nil {
		return nil, err
	}
	v.Run(1<<30, mvm.AllDone(threads))
	for _, th := range threads {
		if th.Uncaught != 0 {
			return nil, fmt.Errorf("%s: %s thread threw %s", name, entry, mvm.ExcName(th.Uncaught))
		}
	}
	return v, nil
}
