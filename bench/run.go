package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"traceback/internal/archive"
	"traceback/internal/collect"
	"traceback/internal/recon"
	"traceback/internal/snap"
	"traceback/internal/tbrt"
)

// mix is how many operations of each phase one round of a workload
// holds. Every round of every workload runs every phase, over the
// workload's own population; the mix is what makes one workload a
// probe benchmark and another a query benchmark.
type mix struct {
	windows int // rate windows the shards are preloaded over: population × windows blobs
	snaps   int // snap operations, cycling through the dead processes (0: each once)
	diag    int // snap files per diagnosis pass (latency and batch)
	ship    int // single-snap shipments (time to diagnosis) per round
	bulk    int // snaps in the round's one bulk drain
	dups    int // exact duplicates riding in the bulk drain (HEAD precheck hits)
	queries int // times each of the five gate routes is asked in the steady phase
}

type workloadSpec struct {
	name, why string
	// population expands a seed into the workload's programs and
	// faults; scale multiplies the programs' arguments (1 in the
	// benchmark, less in the smoke test).
	population func(rng *rand.Rand, scale float64, chk *checks) (*population, error)
	scale      float64
	mix        mix
}

// The four workloads. The why lines are the ones BENCHMARK.json
// carries; bench/README.md has the long form.
var workloads = []workloadSpec{
	{
		name:       "probe-run",
		why:        "all 15 SPEC-shaped kernels plus jbb run to completion: core, vm, mvm and tbrt do the work, recon and the fleet little",
		population: specPopulation, scale: 1,
		mix: mix{windows: 12, diag: 8, ship: 3, bulk: 3, queries: 4},
	},
	{
		name:       "diagnose-dense",
		why:        "wrap-full snaps of five kernels and an 8-thread server: expansion and rendering dominate a diagnosis, decoding barely shows",
		population: densePopulation, scale: 1,
		mix: mix{windows: 14, diag: 6, ship: 3, bulk: 3, queries: 4},
	},
	{
		name:       "diagnose-sparse",
		why:        "near-empty 789 KB snaps of crash-at-start scenarios and fault trials: the same snap and recon code, but decoding zeros dominates",
		population: sparsePopulation, scale: 1,
		mix: mix{windows: 5, snaps: 24, diag: 40, ship: 6, bulk: 6, queries: 4},
	},
	{
		name:       "fleet-wire",
		why:        "three shards preloaded with about 480 sparse blobs behind a gate: reads beside writes, the VM and the expander nearly idle",
		population: sparsePopulation, scale: 1,
		mix: mix{windows: 12, snaps: 24, diag: 12, ship: 10, bulk: 8, dups: 1, queries: 16},
	},
}

func workloadByName(name string) (*workloadSpec, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// checks counts operations and correctness checks, and how many
// failed: the benchmark's verdict and its error ratio.
type checks struct {
	attempted, failed int
	msgs              []string
}

func (c *checks) fail(format string, args ...any) {
	c.failed++
	if len(c.msgs) < 10 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// check records one correctness check.
func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.fail(format, args...)
	}
}

// op records one operation's outcome and reports whether it worked.
func (c *checks) op(err error, what string) bool {
	c.attempted++
	if err != nil {
		c.fail("%s: %v", what, err)
	}
	return err == nil
}

// run is one workload at one seed, set up and ready to be measured.
type run struct {
	spec *workloadSpec
	dir  string
	chk  *checks

	pop   *population
	fleet *fleet
	// lat diagnoses one snap at a time on one worker; batch and
	// batch1 reconstruct a whole pass on jobs workers and on one.
	lat, batch, batch1 *recon.Pipeline
	cache              *recon.MapCache
	queryOps           []string
	scratch            *archive.Archive // the unrolled shipments' archive (traced run only)

	live []*tbrt.Runtime // the runtimes this round's program runs left
	// queries counts gate queries asked, shipped the snaps committed
	// over the wire, diagnosed the snaps the latency pipeline rebuilt.
	queries, shipped, diagnosed int
	rawBytes                    int64 // JSON size of one diagnosis pass, for the decode probe
	yard                        *yardstick
}

// setUp builds everything a round needs under dir: compiles and
// instruments the programs, runs them both ways, generates the fault
// population and its files, boots the daemons and preloads the
// shards. The seed alone determines all of it.
func setUp(spec *workloadSpec, seed int64, jobs int, dir string) (*run, error) {
	r := &run{spec: spec, dir: dir, chk: &checks{}}
	rng := rand.New(rand.NewSource(seed))
	var err error
	if r.pop, err = spec.population(rng, spec.scale, r.chk); err != nil {
		return nil, err
	}
	if err := r.pop.materialize(filepath.Join(dir, "population"), jobs, r.chk); err != nil {
		return nil, err
	}
	if r.fleet, err = bootFleet(filepath.Join(dir, "fleet"), r.pop, spec.mix.windows, jobs); err != nil {
		return nil, err
	}
	r.cache = r.pop.mapCache()
	r.lat = recon.NewPipeline(r.cache, 1)
	r.batch = recon.NewPipeline(r.cache, jobs)
	r.batch1 = recon.NewPipeline(r.cache, 1)
	r.queryOps = r.fleet.shuffledRoutes(rng, spec.mix.queries)
	r.yard = newYardstick()
	return r, nil
}

func (r *run) close() {
	if r.scratch != nil {
		r.scratch.Close()
	}
	if r.fleet != nil {
		r.fleet.close()
	}
}

// opsPerRound is the fixed size of a round's operation list.
func (r *run) opsPerRound() int {
	return len(r.pop.programs) + r.snapOps() + r.diagFiles() + 1 + len(r.queryOps) + 1 + r.spec.mix.ship
}

func (r *run) snapOps() int {
	if n := r.spec.mix.snaps; n > 0 {
		return n
	}
	if n := len(r.pop.snappers); n > 0 {
		return n
	}
	return len(r.pop.programs)
}

func (r *run) diagFiles() int {
	if n := r.spec.mix.diag; n < len(r.pop.files) {
		return n
	}
	return len(r.pop.files)
}

// round performs the workload's fixed operation list once. Timings go
// to rec; with a tracer, every call into a layer is a span and the
// layer probes run too. Between phases, never inside a timed section,
// the collector runs and the host yardstick is read.
func (r *run) round(tr *tracer, rec recorder) {
	var yard []float64
	for _, phase := range []func(*tracer, recorder){r.runPhase, r.snapPhase, r.diagnosePhase, r.queryPhase, r.shipPhase} {
		runtime.GC()
		yard = append(yard, r.yard.read())
		phase(tr, rec)
	}
	rec.samples(yardstickMetric, yard)
}

// runPhase runs every program instrumented. A program's speed is the
// VM cycles it executed over the host time of the interpreter loop;
// run_mcycles_per_s is the geometric mean over the programs, so that a
// seed that lengthens one kernel's run does not re-weight the others.
func (r *run) runPhase(tr *tracer, rec recorder) {
	var rates, plainRates []float64
	wraps, commits := 0, 0
	r.live = r.live[:0]
	for _, p := range r.pop.programs {
		end := tr.op("run")
		proc, rt, d, err := p.run(tr, true)
		end()
		if !r.chk.op(err, "run "+p.name) {
			continue
		}
		rates = append(rates, float64(proc.Cycles)/1e6/d.Seconds())
		wraps += rt.Wraps()
		commits += rt.SubCommits()
		r.live = append(r.live, rt)
		if tr != nil {
			// The control: the same program and argument, no probes.
			plain, _, d, err := p.run(nil, false)
			if r.chk.op(err, "plain run "+p.name) {
				plainRates = append(plainRates, float64(plain.Cycles)/1e6/d.Seconds())
			}
		}
	}
	rec.round("run_mcycles_per_s", geomean(rates))
	if tr != nil {
		rec.round("vm.normal_mcycles_per_s", geomean(plainRates))
		rec.round("tbrt.wraps", float64(wraps))
		rec.round("tbrt.sub_commits", float64(commits))
	}
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// snapPhase is the application's pause at a fault: read the trace
// buffers back out of the dead process and write the gzip snap file.
func (r *run) snapPhase(tr *tracer, rec recorder) {
	rts := r.pop.snappers
	if len(rts) == 0 {
		rts = r.live
	}
	path := filepath.Join(r.dir, "fault.snap.json.gz")
	var lat, sizes, raw []float64
	for i := 0; i < r.snapOps(); i++ {
		rt := rts[i%len(rts)]
		end := tr.op("snap")
		t0 := time.Now()
		done := tr.span("tbrt.PostMortemSnap")
		s := rt.PostMortemSnap()
		done()
		done = tr.span("snap.SaveCompressed")
		n, err := saveSnap(path, s)
		done()
		d := time.Since(t0)
		end()
		if !r.chk.op(err, "snap") {
			continue
		}
		lat = append(lat, ms(d))
		sizes = append(sizes, float64(n))
		if tr != nil {
			cw := &countWriter{w: io.Discard}
			done := tr.span("snap.Save")
			err := s.Save(cw)
			done()
			if r.chk.op(err, "snap.Save") {
				raw = append(raw, float64(cw.n))
			}
		}
	}
	rec.samples("snap_ms_p50", lat)
	rec.round("snap_bytes", mean(sizes))
	if tr != nil {
		rec.round("snap.raw_bytes", mean(raw))
	}
}

func saveSnap(path string, s *snap.Snap) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	cw := &countWriter{w: f}
	err = s.SaveCompressed(cw)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return cw.n, err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func renderString(pt *recon.ProcessTrace) string {
	var b strings.Builder
	recon.Render(&b, pt, recon.RenderOptions{})
	return b.String()
}

// diagnosePhase is the developer's side: each snap file alone to its
// fault-directed view on one worker, then the whole pass as one batch
// on every worker — the two ways tbrecon is used.
func (r *run) diagnosePhase(tr *tracer, rec recorder) {
	files := r.pop.files[:r.diagFiles()]
	var lat []float64
	var traces []*recon.ProcessTrace
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, path := range files {
		end := tr.op("diagnose")
		t0 := time.Now()
		pt, sig, err := r.diagnose(tr, path)
		d := time.Since(t0)
		end()
		if !r.chk.op(err, "diagnose "+filepath.Base(path)) {
			continue
		}
		r.chk.check(sig.ID == r.pop.sigs[i].ID, "diagnose %s: signature %.12s, set-up saw %.12s", filepath.Base(path), sig.ID, r.pop.sigs[i].ID)
		r.diagnosed++
		lat = append(lat, ms(d))
		traces = append(traces, pt)
	}
	runtime.ReadMemStats(&after)
	rec.samples("diagnose_ms_p50", lat)
	if len(lat) > 0 {
		rec.round("diagnose_alloc_kb_per_snap", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(len(lat)))
	}

	sources := make([]recon.Source, len(files))
	for i, path := range files {
		sources[i] = recon.FileSource(path)
	}
	runtime.GC()
	end := tr.op("batch")
	wall, ok := r.runBatch(tr, r.batch, sources)
	end()
	if ok {
		rec.round("diagnose_snaps_per_s", float64(len(files))/wall.Seconds())
	}
	if tr != nil {
		r.probeDiagnose(tr, rec, traces, sources, wall)
	}
}

// diagnose takes one snap file to its fault-directed view and crash
// signature.
func (r *run) diagnose(tr *tracer, path string) (*recon.ProcessTrace, archive.Signature, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, archive.Signature{}, err
	}
	done := tr.span("snap.LoadAuto")
	s, err := snap.LoadAuto(f)
	done()
	f.Close()
	if err != nil {
		return nil, archive.Signature{}, err
	}
	done = tr.span("recon.Pipeline.ReconstructSnap")
	pt, err := r.lat.ReconstructSnap(s)
	done()
	if err != nil {
		return nil, archive.Signature{}, err
	}
	done = tr.span("recon.Render")
	recon.Render(io.Discard, pt, recon.RenderOptions{})
	done()
	done = tr.span("archive.FromTrace")
	sig := archive.FromTrace(pt)
	done()
	return pt, sig, nil
}

func (r *run) runBatch(tr *tracer, pipe *recon.Pipeline, sources []recon.Source) (time.Duration, bool) {
	done := tr.span("recon.Pipeline.Run")
	t0 := time.Now()
	results := pipe.Run(sources)
	wall := time.Since(t0)
	done()
	var err error
	for _, res := range results {
		if res.Err != nil {
			err = fmt.Errorf("%s: %w", res.Name, res.Err)
		}
	}
	return wall, r.chk.op(err, "batch reconstruction")
}

// queryPhase asks the gate while nothing is written: the tbstore
// watch case.
func (r *run) queryPhase(tr *tracer, rec recorder) {
	var lat []float64
	for _, route := range r.queryOps {
		end := tr.op("query")
		_, d, err := r.fleet.get(tr, route)
		end()
		r.queries++
		if r.chk.op(err, "query "+route) {
			lat = append(lat, ms(d))
		}
	}
	rec.samples("query_ms_p50", lat)
	if tr != nil {
		r.probeQuery(tr, rec)
	}
}

// shipPhase writes: one bulk drain, then single shipments each
// followed at once by the query that must show it. Every query here
// is the first after a shard changed.
func (r *run) shipPhase(tr *tracer, rec recorder) {
	m := r.spec.mix
	f := r.fleet
	n := len(r.pop.snaps)
	var churn []float64

	var snaps []*snap.Snap
	var sigs []archive.Signature
	for j := 0; j < m.bulk; j++ {
		s, sig := f.fresh((m.ship + j) % n)
		snaps, sigs = append(snaps, s), append(sigs, sig)
	}
	end := tr.op("bulk")
	wall, err := f.bulk(tr, snaps, sigs, m.dups)
	if r.chk.op(err, "bulk drain") {
		r.shipped += len(snaps)
		rec.round("ingest_snaps_per_s", float64(len(snaps))/wall.Seconds())
		_, d, err := f.get(tr, collect.PathRegressions)
		r.queries++
		if r.chk.op(err, "query after bulk drain") {
			churn = append(churn, ms(d))
		}
	}
	end()

	var ttd, spools, drains []float64
	var shipped []*snap.Snap
	for i := 0; i < m.ship; i++ {
		s, sig := f.fresh(i % n)
		end := tr.op("ship")
		sh, err := f.ship(tr, s, sig)
		end()
		r.queries++
		if !r.chk.op(err, "shipment") {
			continue
		}
		r.shipped++
		ttd = append(ttd, ms(sh.total()))
		churn = append(churn, ms(sh.query))
		spools = append(spools, ms(sh.spool))
		drains = append(drains, ms(sh.drain))
		shipped = append(shipped, s)
	}
	rec.samples("ttd_ms_p50", ttd)
	rec.samples("query_churn_ms_p50", churn)
	if tr != nil {
		rec.samples("collect.spool_ms", spools)
		rec.samples("collect.upload_ms", drains)
		for _, s := range shipped {
			r.chk.op(f.unrolled(tr, s, r.scratch), "unrolled shipment")
		}
	}
}
