package tbrt

import "traceback/internal/telemetry"

// rtMetrics bundles the runtime's registry-backed self-telemetry.
// Handles are resolved once at runtime creation; every hot-path
// update is a single atomic operation (paper-side overhead stays in
// VM cycles, which telemetry never touches).
type rtMetrics struct {
	wraps        *telemetry.Counter
	subCommits   *telemetry.Counter
	desperations *telemetry.Counter
	rebased      *telemetry.Counter
	badDAGs      *telemetry.Counter
	scavenges    *telemetry.Counter
	snaps        *telemetry.Counter
	suppressed   *telemetry.Counter
	syncs        *telemetry.Counter
	buffersFree  *telemetry.Gauge
	buffersTotal *telemetry.Gauge
	snapNanos    *telemetry.Histogram
	snapWords    *telemetry.Histogram
}

func (rt *Runtime) initMetrics() {
	reg := rt.cfg.Telemetry
	rt.met = rtMetrics{
		wraps:        reg.Counter("tbrt_wraps_total", "trace buffer sentinel hits (sub-buffer wraps)"),
		subCommits:   reg.Counter("tbrt_subcommits_total", "sub-buffer commit points recorded"),
		desperations: reg.Counter("tbrt_desperations_total", "threads assigned to the shared desperation buffer"),
		rebased:      reg.Counter("tbrt_rebased_total", "modules whose DAG range was rebased at load"),
		badDAGs:      reg.Counter("tbrt_baddags_total", "modules demoted to the bad-DAG ID (untraced)"),
		scavenges:    reg.Counter("tbrt_scavenges_total", "dead-thread buffers reclaimed by scavenging"),
		snaps:        reg.Counter("tbrt_snaps_total", "snaps written"),
		suppressed:   reg.Counter("tbrt_snaps_suppressed_total", "snap triggers suppressed by policy"),
		syncs:        reg.Counter("tbrt_rpc_syncs_total", "SYNC records written for RPC stitching"),
		buffersFree:  reg.Gauge("tbrt_buffers_free", "main trace buffers currently unassigned"),
		buffersTotal: reg.Gauge("tbrt_buffers_total", "main trace buffers configured"),
		snapNanos:    reg.Histogram("tbrt_snap_nanos", "host-side snap build+write latency", telemetry.DurationBuckets()),
		snapWords:    reg.Histogram("tbrt_snap_words", "trace words captured per snap", telemetry.SizeBuckets()),
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

// FlightRecorder returns the runtime's event ring.
func (rt *Runtime) FlightRecorder() *telemetry.Recorder { return rt.rec }

// Legacy stat accessors, kept for tests and benches that predate the
// registry; they are views over the registry counters.

// Wraps counts buffer sentinel hits.
func (rt *Runtime) Wraps() int { return int(rt.met.wraps.Load()) }

// SubCommits counts sub-buffer commits.
func (rt *Runtime) SubCommits() int { return int(rt.met.subCommits.Load()) }

// Desperations counts desperation-buffer assignments.
func (rt *Runtime) Desperations() int { return int(rt.met.desperations.Load()) }

// Rebased counts load-time DAG range rebases.
func (rt *Runtime) Rebased() int { return int(rt.met.rebased.Load()) }

// BadDAGs counts modules demoted to the bad-DAG ID.
func (rt *Runtime) BadDAGs() int { return int(rt.met.badDAGs.Load()) }
