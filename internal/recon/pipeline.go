package recon

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"traceback/internal/snap"
	"traceback/internal/telemetry"
)

// Pipeline is the parallel reconstruction engine: it fans snap
// sources out to a bounded worker pool and, within one snap, mines
// and expands per-thread record streams concurrently. Record mining,
// DAG resolution, and block/line expansion are independent per
// buffer/segment; only the final join that assembles the ProcessTrace
// is ordered. Results are byte-identical to the sequential
// Reconstruct path, which remains the oracle.
//
// All workers share the pipeline's MapResolver; pass a *MapCache so
// that N snaps from the same binary parse the mapfile once (the
// decode-side mirror of the paper's §3.4 instrumentation cache).
type Pipeline struct {
	maps MapResolver
	jobs int
	// sem holds the extra-goroutine budget (jobs-1: the calling
	// goroutine is itself a worker). Tasks that cannot get a slot run
	// inline, which bounds concurrency at jobs and cannot deadlock
	// even when batch and per-snap stages nest.
	sem chan struct{}

	reg *telemetry.Registry
	met pipeMetrics
}

// pipeMetrics holds the pipeline's registry-backed handles. Stage
// times accumulate as nanosecond counters, summed across workers
// (≈ CPU time when workers saturate cores); snapNanos records the
// per-snap end-to-end latency distribution.
type pipeMetrics struct {
	snaps      *telemetry.Counter
	snapErrors *telemetry.Counter
	buffers    *telemetry.Counter
	records    *telemetry.Counter
	segments   *telemetry.Counter
	events     *telemetry.Counter

	loadNanos   *telemetry.Counter // snap read + parse
	mineNanos   *telemetry.Counter // logical-span recovery + record mining
	expandNanos *telemetry.Counter // DAG resolution + block/line expansion
	joinNanos   *telemetry.Counter // ordered assembly of the ProcessTrace
	wallNanos   *telemetry.Counter // Run() wall-clock, cumulative

	snapNanos *telemetry.Histogram
}

// NewPipeline creates a pipeline over maps with the given worker
// budget. jobs <= 0 selects GOMAXPROCS.
func NewPipeline(maps MapResolver, jobs int) *Pipeline {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	p := &Pipeline{maps: maps, jobs: jobs, sem: make(chan struct{}, jobs-1)}
	reg := telemetry.New()
	p.reg = reg
	p.met = pipeMetrics{
		snaps:       reg.Counter("recon_snaps_total", "snaps fully reconstructed"),
		snapErrors:  reg.Counter("recon_snap_errors_total", "sources that failed to load or expand"),
		buffers:     reg.Counter("recon_buffers_mined_total", "trace buffers mined for records"),
		records:     reg.Counter("recon_records_mined_total", "trace records recovered"),
		segments:    reg.Counter("recon_segments_expanded_total", "thread segments expanded to events"),
		events:      reg.Counter("recon_events_emitted_total", "trace events emitted"),
		loadNanos:   reg.Counter("recon_load_nanos_total", "snap read + parse time (ns, summed across workers)"),
		mineNanos:   reg.Counter("recon_mine_nanos_total", "record mining time (ns, summed across workers)"),
		expandNanos: reg.Counter("recon_expand_nanos_total", "segment expansion time (ns, summed across workers)"),
		joinNanos:   reg.Counter("recon_join_nanos_total", "ordered trace assembly time (ns)"),
		wallNanos:   reg.Counter("recon_wall_nanos_total", "batch Run() wall-clock (ns, cumulative)"),
		snapNanos:   reg.Histogram("recon_snap_nanos", "per-snap end-to-end reconstruction latency (ns)", telemetry.DurationBuckets()),
	}
	if c, ok := maps.(*MapCache); ok {
		reg.GaugeFunc("recon_mapcache_hits", "mapfile cache hits", c.Hits)
		reg.GaugeFunc("recon_mapcache_misses", "mapfile cache misses (parses)", c.Misses)
		reg.GaugeFunc("recon_mapcache_entries", "mapfiles resident in the cache", func() int64 { return int64(c.Len()) })
	}
	return p
}

// Jobs reports the worker budget.
func (p *Pipeline) Jobs() int { return p.jobs }

// Registry exposes the pipeline's metrics registry for exposition
// (tbrecon -metrics) or for sharing with other layers.
func (p *Pipeline) Registry() *telemetry.Registry { return p.reg }

// StatsSnapshot is a plain-value copy of the counters for scraping.
type StatsSnapshot struct {
	SnapsProcessed   int64
	SnapErrors       int64
	BuffersMined     int64
	RecordsMined     int64
	SegmentsExpanded int64
	EventsEmitted    int64
	CacheHits        int64
	CacheMisses      int64

	Load, Mine, Expand, Join, Wall time.Duration
}

// Snapshot copies the counters, merging cache hit/miss counts when
// the pipeline's resolver is a *MapCache. It is a derived view over
// the metrics registry; the registry is the single system of record.
func (p *Pipeline) Snapshot() StatsSnapshot {
	s := StatsSnapshot{
		SnapsProcessed:   int64(p.met.snaps.Load()),
		SnapErrors:       int64(p.met.snapErrors.Load()),
		BuffersMined:     int64(p.met.buffers.Load()),
		RecordsMined:     int64(p.met.records.Load()),
		SegmentsExpanded: int64(p.met.segments.Load()),
		EventsEmitted:    int64(p.met.events.Load()),
		Load:             time.Duration(p.met.loadNanos.Load()),
		Mine:             time.Duration(p.met.mineNanos.Load()),
		Expand:           time.Duration(p.met.expandNanos.Load()),
		Join:             time.Duration(p.met.joinNanos.Load()),
		Wall:             time.Duration(p.met.wallNanos.Load()),
	}
	if c, ok := p.maps.(*MapCache); ok {
		s.CacheHits = c.Hits()
		s.CacheMisses = c.Misses()
	}
	return s
}

func (s StatsSnapshot) String() string {
	return fmt.Sprintf(
		"snaps %d (errors %d) · buffers %d · records %d · segments %d · events %d · map cache %d hit / %d miss · load %v mine %v expand %v join %v · wall %v",
		s.SnapsProcessed, s.SnapErrors, s.BuffersMined, s.RecordsMined,
		s.SegmentsExpanded, s.EventsEmitted, s.CacheHits, s.CacheMisses,
		s.Load, s.Mine, s.Expand, s.Join, s.Wall)
}

// Source is one snap input to a batch run.
type Source struct {
	Name string
	Load func() (*snap.Snap, error)
}

// FileSource reads a snap file (plain or gzipped JSON).
func FileSource(path string) Source {
	return Source{Name: path, Load: func() (*snap.Snap, error) { return snap.LoadFile(path) }}
}

// SnapSource wraps an already-loaded snap.
func SnapSource(name string, s *snap.Snap) Source {
	return Source{Name: name, Load: func() (*snap.Snap, error) { return s, nil }}
}

// Result is one source's reconstruction.
type Result struct {
	Name  string
	Trace *ProcessTrace
	Err   error
}

// Run reconstructs a batch of snaps on the worker pool, returning
// results in source order.
func (p *Pipeline) Run(sources []Source) []Result {
	start := time.Now()
	out := make([]Result, len(sources))
	p.parallelDo(len(sources), func(i int) {
		out[i] = p.runOne(sources[i])
	})
	p.met.wallNanos.Add(uint64(time.Since(start).Nanoseconds()))
	return out
}

func (p *Pipeline) runOne(src Source) Result {
	t0 := time.Now()
	defer func() { p.met.snapNanos.Observe(uint64(time.Since(t0))) }()
	s, err := src.Load()
	p.met.loadNanos.Add(uint64(time.Since(t0).Nanoseconds()))
	if err != nil {
		p.met.snapErrors.Inc()
		return Result{Name: src.Name, Err: fmt.Errorf("%s: %w", src.Name, err)}
	}
	pt, err := p.ReconstructSnap(s)
	if err != nil {
		p.met.snapErrors.Inc()
		return Result{Name: src.Name, Err: fmt.Errorf("%s: %w", src.Name, err)}
	}
	p.met.snaps.Inc()
	return Result{Name: src.Name, Trace: pt}
}

// ReconstructSnap rebuilds one snap with per-buffer mining and
// per-segment expansion running concurrently. The result — including
// the error, should one occur — is identical to Reconstruct's.
func (p *Pipeline) ReconstructSnap(s *snap.Snap) (*ProcessTrace, error) {
	// Stage 1: mine every buffer (pure, independent).
	t0 := time.Now()
	plans := make([]bufferPlan, len(s.Buffers))
	p.parallelDo(len(s.Buffers), func(bi int) {
		plans[bi] = mineBuffer(&s.Buffers[bi])
	})
	p.met.mineNanos.Add(uint64(time.Since(t0).Nanoseconds()))
	p.met.buffers.Add(uint64(len(s.Buffers)))

	// Stage 2: expand every thread segment (independent per segment;
	// the resolver is shared and read-only or internally locked).
	type segJob struct{ bi, si int }
	var jobs []segJob
	for bi := range plans {
		p.met.records.Add(uint64(plans[bi].recordsMined))
		for si := range plans[bi].segs {
			jobs = append(jobs, segJob{bi, si})
		}
	}
	t0 = time.Now()
	threads := make([]*ThreadTrace, len(jobs))
	errs := make([]error, len(jobs))
	p.parallelDo(len(jobs), func(k int) {
		j := jobs[k]
		threads[k], errs[k] = expandSegment(s, p.maps, plans[j.bi].segs[j.si])
	})
	p.met.expandNanos.Add(uint64(time.Since(t0).Nanoseconds()))

	// Join: assemble in buffer/segment order so the output is
	// byte-identical to the sequential oracle, including which error
	// wins when several segments fail.
	t0 = time.Now()
	defer func() { p.met.joinNanos.Add(uint64(time.Since(t0).Nanoseconds())) }()
	pt := &ProcessTrace{Snap: s}
	for k, j := range jobs {
		if errs[k] != nil {
			return nil, errs[k]
		}
		tt := threads[k]
		tt.Truncated = tt.Truncated || plans[j.bi].truncated
		p.met.events.Add(uint64(len(tt.Events)))
		pt.Threads = append(pt.Threads, tt)
	}
	p.met.segments.Add(uint64(len(jobs)))
	for bi := range plans {
		pt.Unrecoverable += plans[bi].unrecoverable
	}
	return pt, nil
}

// parallelDo runs fn(0..n-1) using at most the pipeline's job budget
// of concurrent workers. The calling goroutine participates; extra
// goroutines are spawned only while semaphore slots are free, so
// nested calls (batch → per-snap stages) stay bounded and can never
// deadlock — a task that finds no free slot simply runs inline.
func (p *Pipeline) parallelDo(n int, fn func(int)) {
	if n == 0 {
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		select {
		case p.sem <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer func() {
					<-p.sem
					wg.Done()
				}()
				fn(i)
			}(i)
		default:
			fn(i)
		}
	}
	wg.Wait()
}
