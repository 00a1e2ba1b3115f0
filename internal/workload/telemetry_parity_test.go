package workload

import (
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
		// counted syscalls (exit is a thread-class one).
		if got := reg.Counter("vm_syscalls_thread_total", "").Load(); got == 0 {
			t.Errorf("%s: no thread-class syscalls counted", p.Name)
		}
	}
}
