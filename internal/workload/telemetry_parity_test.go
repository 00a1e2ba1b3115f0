package workload

import (
	"bytes"
	"regexp"
	"testing"

	"traceback/internal/core"
	"traceback/internal/tbrt"
	"traceback/internal/telemetry"
)

// TestTelemetryCycleParity is the deployability guarantee behind the
// self-telemetry layer: metrics and flight events are host-side only,
// so enabling them must not change a single deterministic VM cycle —
// every Table 1 ratio derived from these runs is identical with
// telemetry on or off.
func TestTelemetryCycleParity(t *testing.T) {
	for _, p := range SpecInt {
		row, err := runSpec(p, scaled(p, 0.05))
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.New()
		traced, _, err := runTraced(row, core.Options{}, tbrt.Config{Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		if traced.Cycles != row.TraceBack {
			t.Errorf("%s: telemetry changed cycles: %d vs %d", p.Name, row.TraceBack, traced.Cycles)
		}
		// The telemetry run actually observed the workload: the VM
		// counted syscalls of every class (exit is a thread-class one,
		// the probe helper's buffer_wrap a tb-class one), the module
		// load, the main thread and the process, and its clock moved.
		var expo bytes.Buffer
		if err := reg.WritePrometheus(&expo); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"vm_syscalls_thread_total", "vm_syscalls_tb_total", "vm_syscalls_other_total",
			"vm_modules_loaded_total", "vm_threads_started_total", "vm_processes", "vm_cycles"} {
			if !regexp.MustCompile(`(?m)^` + name + ` [1-9]`).Match(expo.Bytes()) {
				t.Errorf("%s: %s did not move", p.Name, name)
			}
		}
	}
}
