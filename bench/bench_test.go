package main

import (
	"math/rand"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"traceback/internal/archive"
)

// tiny shrinks a workload to a smoke test: one set-up, two rounds,
// short programs, a handful of operations per phase.
func tiny(spec workloadSpec) (workloadSpec, options) {
	spec.scale = 0.1
	spec.mix = mix{windows: 1, diag: 2, ship: 1, bulk: 1, dups: spec.mix.dups, queries: 1}
	return spec, options{seed: 1, setupReps: 1, rounds: 2}
}

// TestDeclaredMetricsAreEmitted holds BENCHMARK.json, the metric
// tables in measure.go and what a run actually emits to each other:
// every declared metric comes out of every workload with the declared
// unit, and nothing undeclared does.
func TestDeclaredMetricsAreEmitted(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	sameDecls := func(kind string, file []benchMetric, code []metricDecl) {
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, measure.go %d", kind, len(file), len(code))
		}
		for i, m := range file {
			d := code[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, measure.go %+v", kind, i, m, d)
			}
			if !nameRE.MatchString(m.Name) {
				t.Errorf("%s name %q is not a valid metric name", kind, m.Name)
			}
		}
	}
	sameDecls("end_to_end", bf.EndToEnd, endToEnd)
	sameDecls("per_layer", bf.PerLayer, perLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, run.go %d", len(bf.Workloads), len(workloads))
	}

	// One traced run per workload gives both tables (its end-to-end
	// values come from its untraced rounds); one untraced run covers
	// the other path. They run side by side: this is a smoke test, the
	// numbers are not looked at.
	check := func(t *testing.T, spec workloadSpec, opts options) {
		t.Parallel()
		dir := t.TempDir()
		res, err := measure(&spec, opts, filepath.Join(dir, "work"), filepath.Join(dir, "out"))
		if err != nil {
			t.Fatalf("%s traced=%v: %v", spec.name, opts.traced, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s traced=%v: correct %v, %d of %d failed: %v", spec.name, opts.traced, res.Correct, res.Failed, res.Attempted, res.Failures)
		}
		if res.Claim != nil {
			t.Errorf("%s: the result claims something", spec.name)
		}
		tables := map[string][]metricDecl{"end_to_end": endToEnd}
		if opts.traced {
			tables["per_layer"] = perLayer
		} else if res.PerLayer != nil {
			t.Errorf("%s: an untraced run emitted per-layer metrics", spec.name)
		}
		for kind, decls := range tables {
			got := res.EndToEnd
			if kind == "per_layer" {
				got = res.PerLayer
			}
			if len(got) != len(decls) {
				t.Errorf("%s %s: %d metrics emitted, %d declared", spec.name, kind, len(got), len(decls))
			}
			for _, d := range decls {
				m, ok := got[d.name]
				if !ok {
					t.Errorf("%s: %s is declared and not emitted", spec.name, d.name)
				} else if m.Unit != d.unit {
					t.Errorf("%s: %s has unit %q, declared %q", spec.name, d.name, m.Unit, d.unit)
				} else if kind == "end_to_end" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %v", spec.name, d.name, m.Value)
				}
			}
		}
	}
	for i, full := range workloads {
		if bf.Workloads[i].Name != full.name || bf.Workloads[i].Why != full.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, run.go %q", i, bf.Workloads[i], full.name)
		}
		spec, opts := tiny(full)
		opts.traced = true
		t.Run(spec.name+"/traced", func(t *testing.T) { check(t, spec, opts) })
	}
	spec, opts := tiny(workloads[len(workloads)-1])
	t.Run(spec.name+"/untraced", func(t *testing.T) { check(t, spec, opts) })
}

// TestPopulationsFollowTheSeed: the seed alone determines a
// workload's inputs, and a different seed gives different ones.
func TestPopulationsFollowTheSeed(t *testing.T) {
	sums := func(build func(*rand.Rand, float64, *checks) (*population, error), seed int64) []string {
		chk := &checks{}
		pop, err := build(rand.New(rand.NewSource(seed)), 0.25, chk)
		if err != nil {
			t.Fatal(err)
		}
		if chk.failed != 0 {
			t.Fatalf("seed %d: %v", seed, chk.msgs)
		}
		var out []string
		for _, s := range pop.snaps {
			sum, _, err := archive.ChecksumSnap(s)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, sum)
		}
		return out
	}
	for name, build := range map[string]func(*rand.Rand, float64, *checks) (*population, error){
		"dense": densePopulation, "sparse": sparsePopulation,
	} {
		a, again, b := sums(build, 1), sums(build, 1), sums(build, 2)
		if len(a) == 0 {
			t.Fatalf("%s: empty population", name)
		}
		if !slices.Equal(a, again) {
			t.Errorf("%s: seed 1 gave two different populations", name)
		}
		if slices.Equal(a, b) {
			t.Errorf("%s: seeds 1 and 2 gave the same population", name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
