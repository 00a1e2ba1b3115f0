package tbrt

import "traceback/internal/telemetry"

// rtMetrics bundles the runtime's registry-backed self-telemetry.
// Handles are resolved once at runtime creation; every hot-path
// update is a single atomic operation (paper-side overhead stays in
// VM cycles, which telemetry never touches).
type rtMetrics struct {
	rebased   *telemetry.Counter
	badDAGs   *telemetry.Counter
	snaps     *telemetry.Counter
	snapNanos *telemetry.Histogram
	snapWords *telemetry.Histogram
}

func (rt *Runtime) initMetrics() {
	reg := rt.cfg.Telemetry
	rt.met = rtMetrics{
		rebased:   reg.Counter("tbrt_rebased_total", "modules whose DAG range was rebased at load"),
		badDAGs:   reg.Counter("tbrt_baddags_total", "modules demoted to the bad-DAG ID (untraced)"),
		snaps:     reg.Counter("tbrt_snaps_total", "snaps written"),
		snapNanos: reg.Histogram("tbrt_snap_nanos", "host-side snap build+write latency", telemetry.DurationBuckets()),
		snapWords: reg.Histogram("tbrt_snap_words", "trace words captured per snap", telemetry.SizeBuckets()),
	}
	rt.rec = reg.Recorder(256)
}

// event records a flight-recorder entry stamped with the
// deterministic machine clock.
func (rt *Runtime) event(kind, detail string) {
	rt.rec.Record(rt.proc.Machine.Clock(), kind, detail)
}

// Metrics returns the registry the runtime instruments itself on.
func (rt *Runtime) Metrics() *telemetry.Registry { return rt.cfg.Telemetry }

// Wraps counts buffer sentinel hits. It and SubCommits serve the
// benchmark and the fault campaign; read other counters via Metrics().
func (rt *Runtime) Wraps() int { return int(rt.bufs.wraps.Load()) }

// SubCommits counts sub-buffer commits.
func (rt *Runtime) SubCommits() int { return int(rt.bufs.subCommits.Load()) }
