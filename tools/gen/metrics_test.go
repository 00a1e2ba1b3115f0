package main

import (
	"bytes"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"traceback/internal/archive"
	"traceback/internal/collect"
	"traceback/internal/fault"
	"traceback/internal/recon"
	"traceback/internal/service"
	"traceback/internal/shard/gate"
	"traceback/internal/tbrt"
	"traceback/internal/telemetry"
	"traceback/internal/verify"
	"traceback/internal/vm"
)

// unnamedMetrics are the registered metrics no test names, each with
// the reader that keeps it.
var unnamedMetrics = map[string]string{
	"recon_snap_errors_total":       "read through Pipeline.Snapshot (tbrecon -stats)",
	"recon_buffers_mined_total":     "read through Pipeline.Snapshot (tbrecon -stats)",
	"recon_records_mined_total":     "read through Pipeline.Snapshot (tbrecon -stats)",
	"recon_segments_expanded_total": "read through Pipeline.Snapshot (tbrecon -stats)",
	"recon_events_emitted_total":    "read through Pipeline.Snapshot (tbrecon -stats)",
	"recon_load_nanos_total":        "read through Pipeline.Snapshot (tbrecon -stats)",
	"recon_mine_nanos_total":        "read through Pipeline.Snapshot (tbrecon -stats)",
	"recon_expand_nanos_total":      "read through Pipeline.Snapshot (tbrecon -stats)",
	"recon_join_nanos_total":        "read through Pipeline.Snapshot (tbrecon -stats)",
	"recon_wall_nanos_total":        "read through Pipeline.Snapshot (tbrecon -stats)",
	"recon_mapcache_hits":           "the registry's view of MapCache.Hits, which Pipeline.Snapshot reads",
	"recon_mapcache_misses":         "the registry's view of MapCache.Misses, which Pipeline.Snapshot reads",
	"coll_agent_retries_total":      "bench/ reads it by name",
	"coll_bytes_received_total":     "bench/ reads it by name",
	"coll_upload_nanos":             "bench/ reads it by name",
}

// TestMetricsDocumentedAndMoved keeps the self-telemetry to what is
// documented and read. One instance of every registering component is
// built, and the names its registry exposes must be exactly those of
// DESIGN.md §12's table (braces expanded). Each name must also appear
// in a string literal of some _test.go file — as itself or as a
// histogram's _bucket/_count/_sum series — or be on unnamedMetrics
// with the reader that keeps it. A metric nothing reads fails here:
// delete it, or assert it where a test already drives its code path.
func TestMetricsDocumentedAndMoved(t *testing.T) {
	const repo = "../.."
	registered := registeredMetrics(t)

	design, err := os.ReadFile(filepath.Join(repo, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	documented := documentedMetrics(t, string(design))
	for name := range registered {
		if !documented[name] {
			t.Errorf("%s is registered but not in DESIGN.md §12's table", name)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("DESIGN.md §12's table lists %s, which no component registers", name)
		}
	}

	literals := testLiterals(t, repo)
	var names []string
	for name := range registered {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		named := regexp.MustCompile(`\b` + name + `(?:_bucket|_count|_sum)?\b`).MatchString(literals)
		_, allowed := unnamedMetrics[name]
		switch {
		case named && allowed:
			t.Errorf("%s is named by a test now; take it off unnamedMetrics", name)
		case !named && !allowed:
			t.Errorf("%s is named by no test: delete it, or assert it where a test already drives it", name)
		}
	}
	for name := range unnamedMetrics {
		if !registered[name] {
			t.Errorf("%s is on unnamedMetrics but registered by nothing", name)
		}
	}
}

// registeredMetrics builds one of each registering component and
// reads the metric names back from their registries' expositions. The
// gate, the service and the pipeline own their registries; everything
// else registers on one shared registry.
func registeredMetrics(t *testing.T) map[string]bool {
	t.Helper()
	reg := telemetry.New()
	mach := vm.NewWorld(1).NewMachine("host", 0)
	mach.EnableTelemetry(reg)
	if _, _, err := tbrt.NewProcess(mach, "app", tbrt.Config{Telemetry: reg}); err != nil {
		t.Fatal(err)
	}
	verify.NewMetrics(reg)
	arch, err := archive.OpenWith(t.TempDir(), archive.Options{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	collect.NewServer(arch, collect.ServerOptions{Telemetry: reg})
	if _, err := collect.NewFleetAgent(t.TempDir(), []string{"http://127.0.0.1:1"}, collect.AgentOptions{Telemetry: reg}); err != nil {
		t.Fatal(err)
	}
	g, err := gate.New([]string{"http://127.0.0.1:1"}, gate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fault.New(fault.Config{Telemetry: reg}); err != nil {
		t.Fatal(err)
	}
	regs := []*telemetry.Registry{
		reg,
		g.Metrics(),
		service.New(mach, 0).Metrics(),
		recon.NewPipeline(recon.NewMapCache(nil), 1).Registry(),
	}

	typeLine := regexp.MustCompile(`(?m)^# TYPE (\S+) `)
	names := map[string]bool{}
	for _, r := range regs {
		var b bytes.Buffer
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		for _, m := range typeLine.FindAllStringSubmatch(b.String(), -1) {
			names[m[1]] = true
		}
	}
	return names
}

// documentedMetrics reads the Metrics column of DESIGN.md §12's table
// and expands each `a_{b,c}_d` into a_b_d and a_c_d.
func documentedMetrics(t *testing.T, design string) map[string]bool {
	t.Helper()
	from := strings.Index(design, "\n## 12. ")
	to := strings.Index(design, "\n## 13. ")
	if from < 0 || to < from {
		t.Fatal("DESIGN.md has no §12 followed by §13")
	}
	token := regexp.MustCompile("`([a-z][a-z0-9_]*(?:\\{[a-z0-9_,]+\\}[a-z0-9_]*)?)`")
	names := map[string]bool{}
	for _, line := range strings.Split(design[from:to], "\n") {
		cells := strings.Split(line, "|")
		if !strings.HasPrefix(line, "| `") || len(cells) < 3 {
			continue
		}
		for _, m := range token.FindAllStringSubmatch(cells[2], -1) {
			name := m[1]
			open := strings.IndexByte(name, '{')
			if open < 0 {
				names[name] = true
				continue
			}
			end := strings.IndexByte(name, '}')
			for _, alt := range strings.Split(name[open+1:end], ",") {
				names[name[:open]+alt+name[end+1:]] = true
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("DESIGN.md §12's table names no metric")
	}
	return names
}

// testLiterals concatenates the string literals of every _test.go file
// in the repository except this one, whose allowlist names metrics.
func testLiterals(t *testing.T, repo string) string {
	t.Helper()
	var all strings.Builder
	err := filepath.WalkDir(repo, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != repo && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") || p == filepath.Join(repo, "tools", "gen", "metrics_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		var s scanner.Scanner
		s.Init(fset.AddFile(p, -1, len(src)), src, nil, 0)
		for {
			_, tok, lit := s.Scan()
			if tok == token.EOF {
				return nil
			}
			if tok == token.STRING {
				if v, err := strconv.Unquote(lit); err == nil {
					all.WriteString(v)
					all.WriteByte('\n')
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return all.String()
}
