package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"traceback/internal/archive"
	"traceback/internal/recon"
)

// metricDecl declares one metric; BENCHMARK.json lists the same names
// and units (bench_test.go holds the two to each other).
type metricDecl struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the stack sees. Every workload
// reports every one of them, each over its own population.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower"},
	{"overhead_ratio", "ratio", "lower"},
	{"code_growth_ratio", "ratio", "lower"},
	{"run_mcycles_per_s", "Mcycles/s", "higher"},
	{"snap_ms_p50", "ms", "lower"},
	{"snap_bytes", "B", "lower"},
	{"diagnose_ms_p50", "ms", "lower"},
	{"diagnose_snaps_per_s", "1/s", "higher"},
	{"diagnose_alloc_kb_per_snap", "KiB", "lower"},
	{"ttd_ms_p50", "ms", "lower"},
	{"ingest_snaps_per_s", "1/s", "higher"},
	{"wire_bytes_per_snap", "B", "lower"},
	{"stored_bytes_per_snap", "B", "lower"},
	{"query_ms_p50", "ms", "lower"},
	{"query_churn_ms_p50", "ms", "lower"},
}

// perLayer are the single-layer metrics of the traced run, named
// <internal package>.<what>. A layer a workload leaves idle reads 0.
var perLayer = []metricDecl{
	{"core.instrument_ms", "ms", "lower"},
	{"core.spills", "count", "lower"},
	{"vm.cycles_normal", "cycles", "lower"},
	{"vm.cycles_traced", "cycles", "lower"},
	{"vm.normal_mcycles_per_s", "Mcycles/s", "higher"},
	{"mvm.overhead_ratio", "ratio", "lower"},
	{"mvm.txn_per_host_s", "1/s", "higher"},
	{"tbrt.wraps", "count", "lower"},
	{"tbrt.sub_commits", "count", "lower"},
	{"tbrt.take_snap_ms", "ms", "lower"},
	{"replay.record_cycle_delta", "cycles", "lower"},
	{"replay.verify_ms", "ms", "lower"},
	{"snap.encode_ms", "ms", "lower"},
	{"snap.raw_bytes", "B", "lower"},
	{"snap.gz_bytes", "B", "lower"},
	{"snap.decode_ms", "ms", "lower"},
	{"snap.decode_alloc_kb", "KiB", "lower"},
	{"snap.decode_mb_per_s", "MB/s", "higher"},
	{"trace.mine_mrecords_per_s", "Mrecords/s", "higher"},
	{"trace.records_per_snap", "count", "lower"},
	{"recon.load_ms", "ms", "lower"},
	{"recon.mine_ms", "ms", "lower"},
	{"recon.expand_ms", "ms", "lower"},
	{"recon.join_ms", "ms", "lower"},
	{"recon.events_per_snap", "count", "lower"},
	{"recon.render_ms", "ms", "lower"},
	{"recon.stitch_ms", "ms", "lower"},
	{"recon.batch_speedup", "ratio", "higher"},
	{"recon.mapcache_hit_ratio", "ratio", "higher"},
	{"recon.diagnose_ms_p95", "ms", "lower"},
	{"archive.checksum_ms", "ms", "lower"},
	{"archive.sign_ms", "ms", "lower"},
	{"archive.ingest_ms", "ms", "lower"},
	{"archive.journal_bytes_per_snap", "B", "lower"},
	{"archive.blob_bytes_per_snap", "B", "lower"},
	{"archive.rebuild_ms", "ms", "lower"},
	{"collect.spool_ms", "ms", "lower"},
	{"collect.upload_ms", "ms", "lower"},
	{"collect.server_upload_ms", "ms", "lower"},
	{"collect.wire_overhead_ms", "ms", "lower"},
	{"collect.precheck_hit_ratio", "ratio", "higher"},
	{"collect.retries", "count", "lower"},
	{"collect.backpressure_429", "count", "lower"},
	{"collect.ttd_ms_p95", "ms", "lower"},
	{"shard.merge_ms", "ms", "lower"},
	{"shard.place_ns", "ns", "lower"},
	{"gate.merge_ms", "ms", "lower"},
	{"gate.fanout_ms", "ms", "lower"},
	{"gate.fanouts_per_query", "ratio", "lower"},
	{"gate.buckets_resp_bytes", "B", "lower"},
	{"gate.query_ms_p95", "ms", "lower"},
	{"triage.classify_ms", "ms", "lower"},
	{"triage.clusters_warm_ms", "ms", "lower"},
	{"triage.clusters_cold_ms", "ms", "lower"},
	{"bench.trace_overhead_ratio", "ratio", "lower"},
	{yardstickMetric, "ms", "lower"},
}

// metricValue is one metric of one run: the median over the measured
// rounds of the round's value, with the rounds' quartiles, how many
// rounds there were and how many samples they pooled.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Rounds int     `json:"rounds"`
	N      int     `json:"n"`
	// Values are the rounds' values, in round order.
	Values []float64 `json:"values,omitempty"`
	// Raw is the value as the clock gave it, where Value is in
	// calibrated time (see calibrate.go); 0 where no clock is involved.
	Raw float64 `json:"raw,omitempty"`
}

func fromSeries(unit string, s *series) metricValue {
	if s == nil || len(s.rounds) == 0 {
		return metricValue{Unit: unit}
	}
	q1, q2, q3 := quartiles(s.rounds)
	n := len(s.pooled)
	if n == 0 {
		n = len(s.rounds)
	}
	return metricValue{Value: q2, Unit: unit, Q1: q1, Q3: q3, Rounds: len(s.rounds), N: n, Values: s.rounds}
}

// yardstickMetric is the series the rounds' yardstick readings go to,
// and the per-layer metric that reports their median.
const yardstickMetric = "bench.yardstick_ms"

// calibrated rescales a clocked metric from the host as it was during
// the run (yardstick reading yard) to the nominal host: when the host
// was slow a time shrinks, and a rate grows.
func calibrated(m metricValue, rate bool, yard float64) metricValue {
	if yard <= 0 {
		return m
	}
	f := nominalYardstickMs / yard
	if rate {
		f = 1 / f
	}
	m.Raw = m.Value
	m.Value *= f
	m.Q1 *= f
	m.Q3 *= f
	return m
}

func single(unit string, v float64) metricValue {
	return metricValue{Value: v, Unit: unit, Q1: v, Q3: v, Rounds: 1, N: 1}
}

// envStamp says where and how a result was measured.
type envStamp struct {
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"numCpu"`
	GoVersion   string  `json:"goVersion"`
	Commit      string  `json:"commit"`
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Traced      bool    `json:"traced"`
	Seconds     float64 `json:"seconds"`
	Rounds      int     `json:"rounds"`
	OpsPerRound int     `json:"opsPerRound"`
	SetupReps   int     `json:"setupReps"`
	// YardstickMs is the run's median host-yardstick reading; clocked
	// metrics are scaled by NominalYardstickMs over it.
	YardstickMs        float64 `json:"yardstickMs"`
	NominalYardstickMs float64 `json:"nominalYardstickMs"`
	MeasuredWall       float64 `json:"measuredWallS"`
	TotalWall          float64 `json:"totalWallS"`
}

// result is one run of one workload, as written to bench/out/.
type result struct {
	Env       envStamp               `json:"env"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	// Claim is always null: this benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
}

// pinProcs sizes the process for the machine: min(NumCPU, 4) procs,
// which is also the batch pipeline's worker count.
func pinProcs() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	runtime.GOMAXPROCS(n)
	return n
}

// options says how one run is measured.
type options struct {
	seed    int64
	seconds float64 // measure until this much time has passed
	traced  bool
	// setupReps is how many times set-up runs, for a steady setup_s.
	setupReps int
	// rounds is the fewest rounds a run measures, and the number the
	// byte counts are taken over: a fixed amount of work, so the counts
	// repeat however many rounds the clock allows after them.
	rounds int
}

// defaults are the benchmark's own settings.
func defaults(seed int64, seconds float64, traced bool) options {
	return options{seed: seed, seconds: seconds, traced: traced, setupReps: 3, rounds: 3}
}

// counters is the state of every registry and disk figure the metrics
// are differences of.
type counters struct {
	bytesIn, uploads, preHit, preMiss, back429 uint64
	uploadNanos, uploadCount                   uint64
	blobBytes                                  uint64
	mergeNanos, mergeCount, fanouts            uint64
	retries                                    uint64
	disk, journals                             int64
	lat, batch                                 recon.StatsSnapshot
	queries, shipped, diagnosed                int
}

func (r *run) counters() (counters, error) {
	f := r.fleet
	c := counters{
		bytesIn: f.counter("coll_bytes_received_total"),
		uploads: f.counter("coll_uploads_total"),
		preHit:  f.counter("coll_precheck_hits_total"),
		preMiss: f.counter("coll_precheck_misses_total"),
		back429: f.counter("coll_backpressure_total"),
		fanouts: f.gate.Metrics().Counter("gate_fanouts_total", "").Load(),
		retries: f.agent.Metrics().Counter("coll_agent_retries_total", "").Load(),
		lat:     r.lat.Snapshot(),
		batch:   r.batch.Snapshot(),
		queries: r.queries, shipped: r.shipped, diagnosed: r.diagnosed,
	}
	for i, s := range f.srvs {
		h := s.Metrics().Histogram("coll_upload_nanos", "", nil)
		c.uploadNanos += h.Sum()
		c.uploadCount += h.Count()
		c.blobBytes += f.archs[i].Metrics().Counter("arch_bytes_written_total", "").Load()
	}
	h := f.gate.Metrics().Histogram("gate_merge_nanos", "", nil)
	c.mergeNanos, c.mergeCount = h.Sum(), h.Count()
	var err error
	c.disk, c.journals, err = f.diskBytes()
	return c, err
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// measure runs one workload at one seed: set-up (several times, for a
// steady setup_s), one warm-up round, measured rounds until seconds
// have passed, then the correctness oracles. With traced set, every
// other measured round carries the tracer and the layer probes; the
// end-to-end values then come from the rounds in between.
func measure(spec *workloadSpec, opts options, workDir, outDir string) (*result, error) {
	start := time.Now()
	jobs := pinProcs()
	var setups []float64
	var r *run
	for i := 0; i < opts.setupReps; i++ {
		if r != nil {
			r.close()
			if err := os.RemoveAll(r.dir); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, err = setUp(spec, opts.seed, jobs, filepath.Join(workDir, fmt.Sprintf("setup%d", i))); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.close()

	var tr *tracer
	if opts.traced {
		var err error
		if r.scratch, err = archive.Open(filepath.Join(r.dir, "scratch")); err != nil {
			return nil, err
		}
		tr = newTracer()
	}

	r.round(nil, recorder{}) // warm-up: caches fill, connections open
	base, err := r.counters()
	if err != nil {
		return nil, err
	}
	// rec takes the rounds that carry the tracer when there is one and
	// every round when there is none; plain the untraced rounds of a
	// traced run.
	rec, plain := recorder{}, recorder{}
	rounds := 0
	var fixed counters // after opts.rounds rounds: what the byte counts are taken over
	t0 := time.Now()
	for rounds < opts.rounds || time.Since(t0).Seconds() < opts.seconds {
		if opts.traced && rounds%2 == 1 {
			r.round(nil, plain)
		} else {
			r.round(tr, rec)
		}
		rounds++
		if rounds == opts.rounds {
			if fixed, err = r.counters(); err != nil {
				return nil, err
			}
		}
	}
	measured := time.Since(t0).Seconds()
	end, err := r.counters()
	if err != nil {
		return nil, err
	}
	if opts.traced {
		r.probeOnce(tr, rec)
	}
	if err := r.fleet.verify(jobs, r.chk); err != nil {
		return nil, fmt.Errorf("verification: %w", err)
	}

	untraced := rec
	if opts.traced {
		untraced = plain
	}
	reading := median(untraced.get(yardstickMetric).pooled)
	e := map[string]metricValue{}
	for _, d := range endToEnd {
		e[d.name] = fromSeries(d.unit, untraced[d.name])
		if isTiming(d) {
			e[d.name] = calibrated(e[d.name], d.better == "higher", reading)
		}
	}
	e["setup_s"] = fromSeries("s", &series{rounds: setups})
	e["overhead_ratio"] = single("ratio", r.pop.overhead)
	e["code_growth_ratio"] = single("ratio", r.pop.growth)
	e["wire_bytes_per_snap"] = single("B", ratio(float64(fixed.bytesIn-base.bytesIn), float64(fixed.uploads-base.uploads)))
	e["stored_bytes_per_snap"] = single("B", ratio(float64(fixed.disk-base.disk), float64(fixed.shipped-base.shipped)))
	for _, d := range endToEnd {
		v := e[d.name].Value
		r.chk.check(v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v), "%s reads %v", d.name, v)
	}

	res := &result{
		Env: envStamp{
			GOMAXPROCS: jobs, NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: commit(),
			Workload: spec.name, Seed: opts.seed, Traced: opts.traced, Seconds: opts.seconds,
			Rounds: rounds, OpsPerRound: r.opsPerRound(), SetupReps: opts.setupReps, MeasuredWall: measured,
			YardstickMs: reading, NominalYardstickMs: nominalYardstickMs,
		},
		EndToEnd:  e,
		Attempted: r.chk.attempted, Failed: r.chk.failed, Failures: r.chk.msgs,
		Correct: r.chk.failed == 0,
	}
	if opts.traced {
		res.PerLayer = r.layerValues(tr, rec, plain, base, end)
	}
	res.Env.TotalWall = time.Since(start).Seconds()
	if opts.traced {
		if err := tr.write(filepath.Join(outDir, spec.name+".trace.json"), res.Env); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// layerValues derives the per-layer metrics of a traced run from the
// spans, the layer probes' series, and the layers' own counters.
func (r *run) layerValues(tr *tracer, rec, plain recorder, base, end counters) map[string]metricValue {
	layers := tr.layers()
	v := map[string]float64{}
	val := func(name string) float64 { return median(rec.get(name).rounds) }

	var instr, spills, cyclesN, cyclesT float64
	for _, p := range r.pop.programs {
		instr += p.instrumentMs
		spills += float64(p.res.Stats.Spills)
		cyclesN += float64(p.normalCycles)
		cyclesT += float64(p.traceCycles)
	}
	v["core.instrument_ms"] = instr / float64(len(r.pop.programs))
	v["core.spills"] = spills
	v["vm.cycles_normal"] = cyclesN
	v["vm.cycles_traced"] = cyclesT
	v["mvm.overhead_ratio"] = r.pop.managed
	for _, name := range []string{
		"vm.normal_mcycles_per_s", "mvm.txn_per_host_s", "tbrt.wraps", "tbrt.sub_commits",
		"replay.record_cycle_delta", "snap.raw_bytes", "snap.decode_alloc_kb", "snap.decode_mb_per_s",
		"trace.mine_mrecords_per_s", "recon.batch_speedup", "collect.spool_ms", "collect.upload_ms",
		"shard.place_ns", "gate.buckets_resp_bytes",
	} {
		v[name] = val(name)
	}
	v["snap.gz_bytes"] = val("snap_bytes")
	for metric, spanName := range map[string]string{
		"tbrt.take_snap_ms":       "tbrt.PostMortemSnap",
		"replay.verify_ms":        "replay.Verify",
		"snap.encode_ms":          "snap.SaveCompressed",
		"snap.decode_ms":          "snap.LoadAuto",
		"recon.render_ms":         "recon.Render",
		"recon.stitch_ms":         "recon.Stitch",
		"archive.checksum_ms":     "archive.ChecksumSnap",
		"archive.sign_ms":         "archive.SignSnap",
		"archive.ingest_ms":       "archive.IngestUnique",
		"archive.rebuild_ms":      "archive.RebuildIndexBytes",
		"shard.merge_ms":          "shard.MergeBuckets",
		"triage.classify_ms":      "triage.Classify",
		"triage.clusters_cold_ms": "triage.Analyzer.Clusters.cold",
		"triage.clusters_warm_ms": "triage.Analyzer.Clusters.warm",
	} {
		v[metric] = meanMs(layers, spanName)
	}

	// The pipeline's own stage clocks, per snap: the latency pipeline
	// is handed loaded snaps, so the load stage is the batch's.
	latSnaps := float64(end.diagnosed - base.diagnosed)
	batchSnaps := float64(end.batch.SnapsProcessed - base.batch.SnapsProcessed)
	v["recon.load_ms"] = ratio(ms(end.batch.Load-base.batch.Load), batchSnaps)
	v["recon.mine_ms"] = ratio(ms(end.lat.Mine-base.lat.Mine), latSnaps)
	v["recon.expand_ms"] = ratio(ms(end.lat.Expand-base.lat.Expand), latSnaps)
	v["recon.join_ms"] = ratio(ms(end.lat.Join-base.lat.Join), latSnaps)
	v["recon.events_per_snap"] = ratio(float64(end.lat.EventsEmitted-base.lat.EventsEmitted), latSnaps)
	v["trace.records_per_snap"] = ratio(float64(end.lat.RecordsMined-base.lat.RecordsMined), latSnaps)
	v["recon.mapcache_hit_ratio"] = ratio(float64(r.cache.Hits()), float64(r.cache.Hits()+r.cache.Misses()))

	shipped := float64(end.shipped - base.shipped)
	queries := float64(end.queries - base.queries)
	v["archive.journal_bytes_per_snap"] = ratio(float64(end.journals-base.journals), shipped)
	v["archive.blob_bytes_per_snap"] = ratio(float64(end.blobBytes-base.blobBytes), shipped)
	v["collect.server_upload_ms"] = ratio(float64(end.uploadNanos-base.uploadNanos)/1e6, float64(end.uploadCount-base.uploadCount))
	v["collect.wire_overhead_ms"] = math.Max(0, v["collect.upload_ms"]-meanMs(layers, "op.unrolled"))
	v["collect.precheck_hit_ratio"] = ratio(float64(end.preHit-base.preHit), float64(end.preHit-base.preHit+end.preMiss-base.preMiss))
	v["collect.retries"] = float64(end.retries - base.retries)
	v["collect.backpressure_429"] = float64(end.back429 - base.back429)
	v["gate.merge_ms"] = ratio(float64(end.mergeNanos-base.mergeNanos)/1e6, float64(end.mergeCount-base.mergeCount))
	v["gate.fanouts_per_query"] = ratio(float64(end.fanouts-base.fanouts), queries)
	v["gate.fanout_ms"] = math.Max(0, val("query_ms_p50")-v["gate.merge_ms"]-v["triage.classify_ms"])

	for metric, src := range map[string]string{
		"recon.diagnose_ms_p95": "diagnose_ms_p50",
		"gate.query_ms_p95":     "query_ms_p50",
		"collect.ttd_ms_p95":    "ttd_ms_p50",
	} {
		if s := rec[src]; s != nil {
			v[metric] = percentile(s.pooled, 95)
		}
	}

	// Tracing overhead: the same timings from the rounds that carried
	// the tracer over the rounds that did not, as a geometric mean of
	// time ratios (a rate's ratio is inverted).
	var over []float64
	for _, d := range endToEnd {
		t, u := val(d.name), median(plain.get(d.name).rounds)
		if !isTiming(d) || t <= 0 || u <= 0 {
			continue
		}
		if d.better == "higher" {
			t, u = u, t
		}
		over = append(over, t/u)
	}
	v["bench.trace_overhead_ratio"] = geomean(over)

	// The layers' times are in calibrated time like the end-to-end
	// ones, by the traced rounds' own yardstick readings.
	yard := median(rec.get(yardstickMetric).pooled)
	out := map[string]metricValue{}
	for _, d := range perLayer {
		m := single(d.unit, v[d.name])
		if isTiming(d) {
			m = calibrated(m, d.better == "higher", yard)
		}
		out[d.name] = m
	}
	out[yardstickMetric] = single("ms", yard)
	return out
}

// isTiming reports whether an end-to-end metric is measured with the
// host clock during the rounds (the others are counts and set-up).
func isTiming(d metricDecl) bool {
	switch d.unit {
	case "ms", "ns", "1/s", "Mcycles/s", "MB/s", "Mrecords/s":
		return true
	}
	return false
}
