package vm

import (
	"traceback/internal/isa"
	"traceback/internal/telemetry"
)

// machMetrics is the machine's optional self-telemetry. It is
// host-side only: counters observe syscalls, module loads and thread
// starts without adding a single cycle to the machine clock, so
// enabling telemetry cannot change any Table 1/2/3 ratio. When nil
// (the default), every instrumentation point is one branch.
type machMetrics struct {
	syscalls [sysClassCount]*telemetry.Counter
	modLoads *telemetry.Counter
	threads  *telemetry.Counter
}

// sysClass buckets syscall numbers for counting: thread lifecycle,
// the tracer's own (snap, buffer wrap), and everything else. One
// counter per class keeps the hot path map-free.
type sysClass int

const (
	sysClassThread sysClass = iota
	sysClassTB
	sysClassOther
	sysClassCount
)

var sysClassNames = [sysClassCount]string{"thread", "tb", "other"}

func classifySyscall(num int) sysClass {
	switch num {
	case isa.SysThreadCreate, isa.SysThreadJoin, isa.SysGetTID, isa.SysKill, isa.SysExit:
		return sysClassThread
	case isa.SysSnap, isa.SysTBWrap:
		return sysClassTB
	}
	return sysClassOther
}

// EnableTelemetry attaches a metrics registry to the machine. Metrics
// are registered under the vm_ prefix with get-or-create semantics,
// so several machines sharing one registry aggregate their counters
// (and their cycle gauges sum at exposition). Telemetry never touches
// the machine clock; the paper's cycle ratios are unchanged whether
// it is enabled or not (asserted by TestTelemetryCycleParity).
func (m *Machine) EnableTelemetry(reg *telemetry.Registry) {
	mm := &machMetrics{
		modLoads: reg.Counter("vm_modules_loaded_total", "modules mapped into processes"),
		threads:  reg.Counter("vm_threads_started_total", "threads created"),
	}
	for c := sysClass(0); c < sysClassCount; c++ {
		mm.syscalls[c] = reg.Counter(
			"vm_syscalls_"+sysClassNames[c]+"_total",
			"syscalls dispatched, class "+sysClassNames[c])
	}
	reg.GaugeFunc("vm_cycles", "machine clock (cycles)", func() int64 { return int64(m.clock) })
	reg.GaugeFunc("vm_processes", "processes ever created on the machine", func() int64 { return int64(len(m.procs)) })
	m.met = mm
}
