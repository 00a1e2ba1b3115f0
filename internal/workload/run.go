package workload

import (
	"fmt"

	"traceback/internal/module"
	"traceback/internal/mvm"
	"traceback/internal/tbrt"
	"traceback/internal/vm"
)

// runNative runs m's main(arg) to completion as the one process of a
// fresh world seeded with seed, on a machine named host. A nil cfg
// runs it uninstrumented; otherwise under the TraceBack runtime, with
// the machine reporting to cfg.Telemetry when it is set. A run that
// dies of a signal is an error.
func runNative(m *module.Module, cfg *tbrt.Config, seed int64, host string, arg uint64) (*vm.Process, error) {
	mach := vm.NewWorld(seed).NewMachine(host, 0)
	var p *vm.Process
	if cfg == nil {
		p = mach.NewProcess(m.Name, nil)
	} else {
		if cfg.Telemetry != nil {
			mach.EnableTelemetry(cfg.Telemetry)
		}
		var err error
		if p, _, err = tbrt.NewProcess(mach, m.Name, *cfg); err != nil {
			return nil, err
		}
	}
	if _, err := p.Load(m); err != nil {
		return nil, err
	}
	if _, err := p.StartMain(arg); err != nil {
		return nil, err
	}
	if err := vm.RunProcess(p, 1<<31); err != nil {
		return nil, err
	}
	if p.FatalSignal != 0 {
		return nil, fmt.Errorf("%s faulted: %s", m.Name, vm.SignalName(p.FatalSignal))
	}
	return p, nil
}

// runManaged loads m into a managed runtime named name under cfg, on
// a fresh world seeded with seed and a machine named host, starts one
// thread at method entry per element of args, and runs until every
// thread is done. A thread ending in an uncaught exception is an
// error.
func runManaged(m *mvm.Module, cfg mvm.RuntimeConfig, seed int64, host, name, entry string, args [][]int64) (*mvm.VM, error) {
	v := mvm.New(vm.NewWorld(seed).NewMachine(host, 0), nil, name, cfg)
	if _, err := v.Load(m); err != nil {
		return nil, err
	}
	threads := make([]*mvm.MThread, len(args))
	for i, a := range args {
		th, err := v.Start(entry, a...)
		if err != nil {
			return nil, err
		}
		threads[i] = th
	}
	v.Run(1<<30, mvm.AllDone(threads))
	for _, th := range threads {
		if th.Uncaught != 0 {
			return nil, fmt.Errorf("%s: %s thread threw %s", name, entry, mvm.ExcName(th.Uncaught))
		}
	}
	return v, nil
}
