package recon

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"traceback/internal/core"
	"traceback/internal/isa"
	"traceback/internal/module"
	"traceback/internal/snap"
	"traceback/internal/tbrt"
	"traceback/internal/vm"
)

// snapAndMap instruments m, runs it to completion (or fault), and
// returns the snap plus the raw mapfile. Benchmark-friendly twin of
// runSnap.
func snapAndMap(tb testing.TB, m *module.Module, cfg tbrt.Config) (*snap.Snap, *module.MapFile) {
	tb.Helper()
	res, err := core.Instrument(m, core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	w := vm.NewWorld(3)
	mach := w.NewMachine("host", 0)
	p, rt, err := tbrt.NewProcess(mach, m.Name, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := p.Load(res.Module); err != nil {
		tb.Fatal(err)
	}
	if _, err := p.StartMain(0); err != nil {
		tb.Fatal(err)
	}
	vm.RunProcess(p, 2_000_000)
	var s *snap.Snap
	if snaps := rt.Snaps(); len(snaps) > 0 {
		s = snaps[0]
	} else {
		s = rt.PostMortemSnap()
	}
	return s, res.Map
}

// memLoader serves mapfiles from memory, for caches in tests.
func memLoader(mfs ...*module.MapFile) MapLoader {
	bySum := map[string]*module.MapFile{}
	for _, mf := range mfs {
		bySum[mf.Checksum] = mf
	}
	return func(sum string) (*module.MapFile, error) {
		if mf, ok := bySum[sum]; ok {
			return mf, nil
		}
		return nil, fmt.Errorf("no mapfile with checksum %s", sum)
	}
}

// renderResults renders a batch the way cmd/tbrecon does, giving a
// single byte-comparable string per run.
func renderResults(results []Result) string {
	var sb strings.Builder
	for _, r := range results {
		fmt.Fprintf(&sb, "== %s ==\n", r.Name)
		if r.Err != nil {
			fmt.Fprintf(&sb, "error: %v\n", r.Err)
			continue
		}
		Render(&sb, r.Trace, RenderOptions{})
	}
	return sb.String()
}

// stressFixtures builds a diverse snap set: straight-line control flow
// with a call (fig2), a collapsed loop, a wrapped buffer that lost
// history, and a divide fault with trimming.
func stressFixtures(tb testing.TB) ([]Source, []*module.MapFile) {
	loop := &module.Module{
		Name: "loop",
		Code: []isa.Instr{
			{Op: isa.MOVI, A: 1, Imm: 50},
			{Op: isa.ADDI, A: 1, B: 1, Imm: -1},
			{Op: isa.BGT, A: 1, B: 0, Imm: 1},
			{Op: isa.MOVI, A: 1, Imm: 0},
			{Op: isa.SYS, Imm: isa.SysExit},
		},
		Funcs: []module.Func{{Name: "main", Entry: 0, End: 5, Exported: true}},
		Files: []string{"loop.mc"},
		Lines: []module.LineEntry{
			{Index: 0, File: 0, Line: 1}, {Index: 1, File: 0, Line: 2},
			{Index: 3, File: 0, Line: 3},
		},
	}
	long := &module.Module{
		Name: "long",
		Code: []isa.Instr{
			{Op: isa.MOVI, A: 1, Imm: 3000},
			{Op: isa.ADDI, A: 1, B: 1, Imm: -1},
			{Op: isa.BGT, A: 1, B: 0, Imm: 1},
			{Op: isa.MOVI, A: 1, Imm: 0},
			{Op: isa.SYS, Imm: isa.SysExit},
		},
		Funcs: []module.Func{{Name: "main", Entry: 0, End: 5, Exported: true}},
		Files: []string{"l.mc"},
		Lines: []module.LineEntry{{Index: 0, File: 0, Line: 1}},
	}
	trim := &module.Module{
		Name: "trim",
		Code: []isa.Instr{
			{Op: isa.MOVI, A: 1, Imm: 4},
			{Op: isa.MOVI, A: 2, Imm: 0},
			{Op: isa.DIV, A: 3, B: 1, C: 2},
			{Op: isa.MOVI, A: 4, Imm: 5},
			{Op: isa.MOVI, A: 1, Imm: 0},
			{Op: isa.SYS, Imm: isa.SysExit},
		},
		Funcs: []module.Func{{Name: "main", Entry: 0, End: 6, Exported: true}},
		Files: []string{"trim.mc"},
		Lines: []module.LineEntry{
			{Index: 0, File: 0, Line: 1}, {Index: 1, File: 0, Line: 2},
			{Index: 2, File: 0, Line: 3}, {Index: 3, File: 0, Line: 4},
			{Index: 4, File: 0, Line: 5},
		},
	}
	type fixture struct {
		m   *module.Module
		cfg tbrt.Config
	}
	fixtures := []fixture{
		{fig2(), tbrt.Config{}},
		{loop, tbrt.Config{}},
		{long, tbrt.Config{BufferWords: 128, SubBuffers: 4}},
		{trim, tbrt.Config{Policy: tbrt.DefaultPolicy()}},
	}
	var sources []Source
	var mfs []*module.MapFile
	for _, fx := range fixtures {
		s, mf := snapAndMap(tb, fx.m, fx.cfg)
		sources = append(sources, SnapSource(fx.m.Name, s))
		mfs = append(mfs, mf)
	}
	return sources, mfs
}

// TestPipelineMatchesOracleStress renders a diverse snap batch through
// the parallel pipeline at several job counts and demands the output
// be byte-identical to the sequential Reconstruct oracle. Run under
// -race (make test-race) this doubles as the shared-state stress test:
// all workers hit one MapCache concurrently.
func TestPipelineMatchesOracleStress(t *testing.T) {
	sources, mfs := stressFixtures(t)

	// Sequential oracle over the eager, immutable MapSet.
	oracleMaps := NewMapSet(mfs...)
	var oracle []Result
	for _, src := range sources {
		s, err := src.Load()
		if err != nil {
			t.Fatal(err)
		}
		pt, err := Reconstruct(s, oracleMaps)
		oracle = append(oracle, Result{Name: src.Name, Trace: pt, Err: err})
	}
	want := renderResults(oracle)

	for _, jobs := range []int{1, 4, 16} {
		for rep := 0; rep < 4; rep++ {
			pipe := NewPipeline(NewMapCache(memLoader(mfs...)), jobs)
			got := renderResults(pipe.Run(sources))
			if got != want {
				t.Fatalf("jobs=%d rep=%d: pipeline output diverges from oracle\n--- pipeline ---\n%s\n--- oracle ---\n%s",
					jobs, rep, got, want)
			}
			snap := pipe.Snapshot()
			if snap.SnapsProcessed != int64(len(sources)) || snap.SnapErrors != 0 {
				t.Fatalf("jobs=%d: stats = %s", jobs, snap)
			}
		}
	}
}

// TestPipelineDeterminismFigure4: the paper's Figure 4 reconstruction,
// rendered twice through the parallel pipeline, must be byte-identical
// across runs and identical to the sequential render.
func TestPipelineDeterminismFigure4(t *testing.T) {
	s, maps, _ := runSnap(t, fig2(), tbrt.Config{}, 0)

	pt, err := Reconstruct(s, maps)
	if err != nil {
		t.Fatal(err)
	}
	var seq strings.Builder
	Render(&seq, pt, RenderOptions{})

	var outs []string
	for run := 0; run < 2; run++ {
		pipe := NewPipeline(maps, 8)
		results := pipe.Run([]Source{SnapSource("fig4", s)})
		if results[0].Err != nil {
			t.Fatal(results[0].Err)
		}
		var buf strings.Builder
		Render(&buf, results[0].Trace, RenderOptions{})
		outs = append(outs, buf.String())
	}
	if outs[0] != outs[1] {
		t.Fatalf("figure-4 render differs between identical pipeline runs:\n%s\nvs\n%s", outs[0], outs[1])
	}
	if outs[0] != seq.String() {
		t.Fatalf("figure-4 pipeline render differs from sequential:\n%s\nvs\n%s", outs[0], seq.String())
	}
}

// distributedSnaps runs the Figure 6 client/server RPC pair on two
// skewed machines and returns the raw snaps (runDistributed's twin
// that stops before reconstruction).
func distributedSnaps(t *testing.T, skew int64) (*snap.Snap, *snap.Snap, []*module.MapFile) {
	t.Helper()
	resC, err := core.Instrument(clientMod(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resS, err := core.Instrument(serverMod(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := vm.NewWorld(5)
	mc := w.NewMachine("client-box", 0)
	ms := w.NewMachine("server-box", skew)
	pc, rtc, err := tbrt.NewProcess(mc, "client", tbrt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ps, rts, err := tbrt.NewProcess(ms, "server", tbrt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []struct {
		p *vm.Process
		m *module.Module
	}{{pc, resC.Module}, {ps, resS.Module}} {
		if _, err := x.p.Load(x.m); err != nil {
			t.Fatal(err)
		}
		x.p.AllocRegion(16384)
		if _, err := x.p.StartMain(0); err != nil {
			t.Fatal(err)
		}
	}
	w.RegisterEndpoint(7, ps)
	w.Run(2_000_000, func() bool { return pc.Exited && ps.Exited })
	if !pc.Exited || !ps.Exited {
		t.Fatalf("client exited=%v server exited=%v", pc.Exited, ps.Exited)
	}
	return rtc.PostMortemSnap(), rts.PostMortemSnap(), []*module.MapFile{resC.Map, resS.Map}
}

// TestPipelineDeterminismFigure6: the Figure 6 distributed
// reconstruction — both snaps through the pipeline, stitched into one
// logical thread, rendered — must be byte-identical across runs and
// match the sequential path.
func TestPipelineDeterminismFigure6(t *testing.T) {
	sc, ss, mfs := distributedSnaps(t, -1_000_000)
	sources := []Source{SnapSource("client", sc), SnapSource("server", ss)}

	renderStitched := func(pts []*ProcessTrace) string {
		mt := Stitch(pts)
		if len(mt.Logical) != 1 {
			t.Fatalf("%d logical threads, want 1", len(mt.Logical))
		}
		var buf strings.Builder
		RenderLogical(&buf, mt.Logical[0], RenderOptions{})
		return buf.String()
	}

	maps := NewMapSet(mfs...)
	ptc, err := Reconstruct(sc, maps)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := Reconstruct(ss, maps)
	if err != nil {
		t.Fatal(err)
	}
	seq := renderStitched([]*ProcessTrace{ptc, pts})

	var outs []string
	for run := 0; run < 2; run++ {
		pipe := NewPipeline(NewMapCache(memLoader(mfs...)), 8)
		results := pipe.Run(sources)
		traces := make([]*ProcessTrace, len(results))
		for i, r := range results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			traces[i] = r.Trace
		}
		outs = append(outs, renderStitched(traces))
	}
	if outs[0] != outs[1] {
		t.Fatalf("figure-6 logical render differs between identical pipeline runs:\n%s\nvs\n%s", outs[0], outs[1])
	}
	if outs[0] != seq {
		t.Fatalf("figure-6 pipeline render differs from sequential:\n%s\nvs\n%s", outs[0], seq)
	}
}

// TestPipelineCacheSharing: a batch of snaps from the same binary must
// parse the mapfile once (misses == distinct checksums) and serve
// every further lookup from the cache.
func TestPipelineCacheSharing(t *testing.T) {
	s, mf := snapAndMap(t, fig2(), tbrt.Config{})
	var sources []Source
	for i := 0; i < 8; i++ {
		sources = append(sources, SnapSource(fmt.Sprintf("snap%d", i), s))
	}
	loads := 0
	inner := memLoader(mf)
	cache := NewMapCache(func(sum string) (*module.MapFile, error) {
		loads++ // single-flight: only ever called under one entry's miss
		return inner(sum)
	})
	pipe := NewPipeline(cache, 4)
	for _, r := range pipe.Run(sources) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	snap := pipe.Snapshot()
	if snap.CacheMisses != 1 {
		t.Errorf("cache misses = %d, want 1 (one distinct checksum)", snap.CacheMisses)
	}
	if snap.CacheHits == 0 {
		t.Error("cache hits = 0, want > 0 (shared-binary batch must hit)")
	}
	if loads != 1 {
		t.Errorf("loader invoked %d times, want 1", loads)
	}
	if snap.SnapsProcessed != int64(len(sources)) {
		t.Errorf("snaps processed = %d, want %d", snap.SnapsProcessed, len(sources))
	}
}

// TestPipelineErrorMatchesOracle: when reconstruction fails (missing
// mapfile), the pipeline must surface the same error the sequential
// path does — the ordered join decides which segment's error wins.
func TestPipelineErrorMatchesOracle(t *testing.T) {
	s, _ := snapAndMap(t, fig2(), tbrt.Config{})
	_, seqErr := Reconstruct(s, NewMapSet())
	if seqErr == nil {
		t.Fatal("oracle unexpectedly succeeded without mapfiles")
	}
	for _, jobs := range []int{1, 8} {
		pipe := NewPipeline(NewMapCache(memLoader()), jobs)
		results := pipe.Run([]Source{SnapSource("fig2", s)})
		if results[0].Err == nil {
			t.Fatalf("jobs=%d: pipeline succeeded where oracle failed", jobs)
		}
		want := "fig2: " + seqErr.Error()
		if results[0].Err.Error() != want {
			t.Errorf("jobs=%d: err = %q, want %q", jobs, results[0].Err, want)
		}
		if pipe.Snapshot().SnapErrors != 1 {
			t.Errorf("jobs=%d: snap errors = %d, want 1", jobs, pipe.Snapshot().SnapErrors)
		}
	}
}

// TestPipelineBatchLoadError: a source that fails to load reports its
// error in position without disturbing the rest of the batch.
func TestPipelineBatchLoadError(t *testing.T) {
	s, mf := snapAndMap(t, fig2(), tbrt.Config{})
	sources := []Source{
		SnapSource("ok1", s),
		{Name: "broken", Load: func() (*snap.Snap, error) { return nil, fmt.Errorf("disk gone") }},
		SnapSource("ok2", s),
	}
	pipe := NewPipeline(NewMapCache(memLoader(mf)), 4)
	results := pipe.Run(sources)
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy sources failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "disk gone") {
		t.Fatalf("broken source err = %v", results[1].Err)
	}
	snap := pipe.Snapshot()
	if snap.SnapsProcessed != 2 || snap.SnapErrors != 1 {
		t.Fatalf("stats = %s", snap)
	}
}

// bigModule builds a module with n leaf functions, each called once
// from main, with a full line table — its mapfile is large, which is
// what makes per-snap re-parsing (the pre-pipeline tbrecon behavior)
// expensive.
func bigModule(n int) *module.Module {
	m := &module.Module{Name: "big", Files: []string{"big.mc"}}
	entry := func(i int) int32 { return int32(n + 2 + i*3) }
	for i := 0; i < n; i++ {
		m.Code = append(m.Code, isa.Instr{Op: isa.CALL, Imm: entry(i)})
	}
	m.Code = append(m.Code,
		isa.Instr{Op: isa.MOVI, A: 1, Imm: 0},
		isa.Instr{Op: isa.SYS, Imm: isa.SysExit},
	)
	for i := 0; i < n; i++ {
		m.Code = append(m.Code,
			isa.Instr{Op: isa.MOVI, A: 3, Imm: int32(i)},
			isa.Instr{Op: isa.ADD, A: 4, B: 4, C: 3},
			isa.Instr{Op: isa.RET},
		)
	}
	m.Funcs = append(m.Funcs, module.Func{Name: "main", Entry: 0, End: uint32(n + 2), Exported: true})
	for i := 0; i < n; i++ {
		m.Funcs = append(m.Funcs, module.Func{
			Name: fmt.Sprintf("leaf%d", i), Entry: uint32(entry(i)), End: uint32(entry(i)) + 3,
		})
	}
	for i := range m.Code {
		m.Lines = append(m.Lines, module.LineEntry{Index: uint32(i), File: 0, Line: uint32(i + 1)})
	}
	return m
}

// benchCorpus writes nSnaps copies of a big-module snap plus its
// mapfile into a fresh directory tree, returning the snap paths and
// the mapfile path.
func benchCorpus(tb testing.TB, nSnaps int) (snapPaths []string, mapsDir, mapPath string) {
	tb.Helper()
	s, mf := snapAndMap(tb, bigModule(512), tbrt.Config{BufferWords: 512, SubBuffers: 4})
	root := tb.TempDir()
	mapsDir = filepath.Join(root, "maps")
	if err := os.MkdirAll(mapsDir, 0o755); err != nil {
		tb.Fatal(err)
	}
	mapPath = filepath.Join(mapsDir, "big.map.json")
	mw, err := os.Create(mapPath)
	if err != nil {
		tb.Fatal(err)
	}
	if err := mf.Save(mw); err != nil {
		tb.Fatal(err)
	}
	mw.Close()
	for i := 0; i < nSnaps; i++ {
		p := filepath.Join(root, fmt.Sprintf("run%02d.snap.json", i))
		f, err := os.Create(p)
		if err != nil {
			tb.Fatal(err)
		}
		if err := s.Save(f); err != nil {
			tb.Fatal(err)
		}
		f.Close()
		snapPaths = append(snapPaths, p)
	}
	return snapPaths, mapsDir, mapPath
}

// BenchmarkPipelineRecon compares batch reconstruction of 16 snaps
// sharing one binary: the sequential baseline re-parses the mapfile
// for every snap (one tbrecon invocation per snap, the pre-pipeline
// workflow), the pipeline parses it once into the shared MapCache.
// expand and render time the two per-snap stages alone on one of
// those snaps, already loaded.
func BenchmarkPipelineRecon(b *testing.B) {
	const nSnaps = 16
	snapPaths, mapsDir, mapPath := benchCorpus(b, nSnaps)
	b.ReportAllocs()

	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range snapPaths {
				f, err := os.Open(p)
				if err != nil {
					b.Fatal(err)
				}
				s, err := snap.LoadAuto(f)
				f.Close()
				if err != nil {
					b.Fatal(err)
				}
				mr, err := os.Open(mapPath)
				if err != nil {
					b.Fatal(err)
				}
				mf, err := module.LoadMapFile(mr)
				mr.Close()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Reconstruct(s, NewMapSet(mf)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("jobs8", func(b *testing.B) {
		sources := make([]Source, len(snapPaths))
		for i, p := range snapPaths {
			sources[i] = FileSource(p)
		}
		for i := 0; i < b.N; i++ {
			maps, _, err := NewMapDir(mapsDir)
			if err != nil {
				b.Fatal(err)
			}
			pipe := NewPipeline(maps, 8)
			for _, r := range pipe.Run(sources) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
			if snap := pipe.Snapshot(); snap.CacheHits == 0 {
				b.Fatalf("no cache hits in a shared-binary batch: %s", snap)
			}
		}
	})
	s, err := snap.LoadFile(snapPaths[0])
	if err != nil {
		b.Fatal(err)
	}
	mr, err := os.Open(mapPath)
	if err != nil {
		b.Fatal(err)
	}
	mf, err := module.LoadMapFile(mr)
	mr.Close()
	if err != nil {
		b.Fatal(err)
	}
	maps := NewMapSet(mf)
	var segs []segment
	for bi := range s.Buffers {
		segs = append(segs, mineBuffer(&s.Buffers[bi]).segs...)
	}
	b.Run("expand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, seg := range segs {
				if _, err := expandSegment(s, maps, seg); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	pt, err := Reconstruct(s, maps)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("render", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Render(io.Discard, pt, RenderOptions{})
		}
	})
}
