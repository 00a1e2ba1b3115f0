package tbrt

import (
	"bytes"
	"strings"
	"testing"

	"traceback/internal/core"
	"traceback/internal/isa"
	"traceback/internal/module"
	"traceback/internal/vm"
)

// TestRuntimeTelemetry drives a wrap-heavy run and checks that the
// registry and flight recorder saw it: counters match the legacy
// accessors, the buffer gauge is consistent, and buffer-wrap events
// landed in the ring with the machine clock attached.
func TestRuntimeTelemetry(t *testing.T) {
	loop := &module.Module{
		Name: "spin",
		Code: []isa.Instr{
			{Op: isa.MOVI, A: 1, Imm: 500},
			{Op: isa.ADDI, A: 1, B: 1, Imm: -1},
			{Op: isa.BGT, A: 1, B: 0, Imm: 1},
			{Op: isa.MOVI, A: 1, Imm: 0},
			{Op: isa.SYS, Imm: isa.SysExit},
		},
		Funcs: []module.Func{{Name: "main", Entry: 0, End: 5, Exported: true}},
	}
	res := instr(t, loop, core.Options{})
	p, rt, _ := newRT(t, Config{BufferWords: 64, SubBuffers: 4, NumBuffers: 2})
	if _, err := p.Load(res.Module); err != nil {
		t.Fatal(err)
	}
	p.StartMain(0)
	if err := vm.RunProcess(p, 1_000_000); err != nil {
		t.Fatal(err)
	}

	reg := rt.Metrics()
	wraps := reg.Counter("tbrt_wraps_total", "").Load()
	if wraps == 0 || int(wraps) != rt.Wraps() {
		t.Errorf("registry wraps %d vs accessor %d", wraps, rt.Wraps())
	}
	if got := reg.Counter("tbrt_subcommits_total", "").Load(); int(got) != rt.SubCommits() {
		t.Errorf("registry subcommits %d vs accessor %d", got, rt.SubCommits())
	}
	free := reg.Gauge("tbrt_buffers_free", "").Load()
	total := reg.Gauge("tbrt_buffers_total", "").Load()
	if total != 2 || free < 0 || free > total {
		t.Errorf("buffer gauges free=%d total=%d", free, total)
	}

	events := rt.rec.Events()
	var lastClock uint64
	sawWrap := false
	for _, e := range events {
		if e.Kind == "buffer-wrap" {
			sawWrap = true
			if e.Clock < lastClock {
				t.Errorf("flight clocks not monotone: %d after %d", e.Clock, lastClock)
			}
			lastClock = e.Clock
		}
	}
	if !sawWrap {
		t.Errorf("no buffer-wrap flight event among %d events", len(events))
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"tbrt_wraps_total", "tbrt_buffers_free", "tbrt_snap_nanos_bucket"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %s:\n%s", want, buf.String())
		}
	}
}
