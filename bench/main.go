// Command bench is the repository's benchmark. It drives the whole
// stack — instrumenter, VM and runtime, snap, reconstruction,
// warehouse, collection plane, shards and gate, triage — from outside,
// through the packages' public functions only, over four seeded
// workloads, and prints every metric by name with its unit, quartiles
// and sample count, plus a correctness verdict. See README.md here.
//
//	bench/run.sh --workload fleet-wire --seed 1 --seconds 20 --trace 0
//	go run ./bench -workload diagnose-dense -trace 1
//	go run ./bench -aa 5
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
)

func main() { os.Exit(benchMain()) }

// benchMain is main with an exit code: 0 when everything measured was
// correct, 1 when a result was not (or a comparison failed), 2 when
// the benchmark itself could not run.
func benchMain() int {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four, one after the other)")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 20, "how long to measure; rounds of fixed work repeat until it has passed")
		traced  = flag.Int("trace", 0, "1: the traced run (per-layer metrics, bench/out/<workload>.trace.json); 0: end-to-end metrics")
		aa      = flag.Int("aa", 0, "A/A mode: run the suite as two interleaved sets of N and compare them")
		compare = flag.Bool("compare", false, "compare two saved result files: -compare parent.json change.json")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for result and trace files")
		save    = flag.String("save", "", "also append every run's result to this file (input of -compare)")
	)
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	verdict := func(ok bool, err error) int {
		switch {
		case err != nil:
			return fail(err)
		case !ok:
			return 1
		}
		return 0
	}

	if *compare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		return verdict(compareFiles(flag.Arg(0), flag.Arg(1)))
	}

	specs := workloads
	if *name != "" {
		spec, ok := workloadByName(*name)
		if !ok {
			return fail(fmt.Errorf("no workload %q", *name))
		}
		specs = []workloadSpec{*spec}
	}
	// All state lives under the checkout: the directory the benchmark
	// is run from.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return fail(err)
	}
	workDir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(workDir)

	if *aa > 0 {
		return verdict(runAA(specs, *aa, *seed, *seconds, workDir, *outDir))
	}

	code := 0
	for i := range specs {
		spec := &specs[i]
		res, err := measure(spec, defaults(*seed, *seconds, *traced == 1), filepath.Join(workDir, spec.name), *outDir)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", spec.name, err))
		}
		printResult(res)
		suffix := ".json"
		if res.Env.Traced {
			suffix = ".traced.json"
		}
		if err := writeJSON(filepath.Join(*outDir, spec.name+suffix), res); err != nil {
			return fail(err)
		}
		if *save != "" {
			if err := appendResult(*save, res); err != nil {
				return fail(err)
			}
		}
		line, err := contractLine(res)
		if err != nil {
			return fail(err)
		}
		fmt.Println(line)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// buildCommit is set by run.sh at link time.
var buildCommit string

// commit is the VCS revision the binary was built from, when the
// build recorded one.
func commit() string {
	if buildCommit != "" {
		return buildCommit
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func (r *result) metrics() map[string]metricValue {
	if r.Env.Traced {
		return r.PerLayer
	}
	return r.EndToEnd
}

// contractLine is the one JSON object a driver reads from the last
// line of standard output.
func contractLine(r *result) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for name, m := range r.metrics() {
		out.Metrics[name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

func printResult(r *result) {
	e := r.Env
	fmt.Printf("== %s  seed %d  traced %v  GOMAXPROCS %d of %d CPUs  %s  commit %.12s\n",
		e.Workload, e.Seed, e.Traced, e.GOMAXPROCS, e.NumCPU, e.GoVersion, e.Commit)
	fmt.Printf("   %d rounds of %d ops in %.1f s measured, %.1f s in all; host yardstick %.2f ms, clocked values scaled to %.2f ms\n",
		e.Rounds, e.OpsPerRound, e.MeasuredWall, e.TotalWall, e.YardstickMs, e.NominalYardstickMs)
	decls := endToEnd
	if e.Traced {
		decls = perLayer
	}
	ms := r.metrics()
	fmt.Printf("   %-32s %14s %-10s %14s %14s %6s %6s %14s\n", "metric", "value", "unit", "q1", "q3", "rounds", "n", "uncalibrated")
	for _, d := range decls {
		m := ms[d.name]
		fmt.Printf("   %-32s %14.4f %-10s %14.4f %14.4f %6d %6d", d.name, m.Value, m.Unit, m.Q1, m.Q3, m.Rounds, m.N)
		if m.Raw != 0 {
			fmt.Printf(" %14.4f", m.Raw)
		}
		fmt.Println()
	}
	fmt.Printf("   correct %v: %d attempted, %d failed, error_ratio %.6f\n", r.Correct, r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)))
	for _, f := range r.Failures {
		fmt.Printf("   FAILED %s\n", f)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// resultSet is a saved file of runs: what -save accumulates and
// -compare reads.
type resultSet struct {
	Runs []*result `json:"runs"`
	// Claim is always null: a result set measures, it claims no gain.
	Claim *string `json:"claim"`
}

func readResults(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

func appendResult(path string, r *result) error {
	rs := &resultSet{}
	if _, err := os.Stat(path); err == nil {
		if rs, err = readResults(path); err != nil {
			return err
		}
	}
	rs.Runs = append(rs.Runs, r)
	return writeJSON(path, rs)
}
