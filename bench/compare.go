package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchmarkFile is the part of BENCHMARK.json the comparisons need.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// exact are the end-to-end metrics that two runs of the same code at
// the same seed must report bit for bit: cycle counts and byte counts
// over a fixed number of rounds, no clock involved.
var exact = map[string]bool{
	"overhead_ratio": true, "code_growth_ratio": true, "snap_bytes": true,
	"wire_bytes_per_snap": true, "stored_bytes_per_snap": true,
}

// cell is one (workload, metric) pair's values over a set of runs.
func cell(runs []*result, workload, metric string) []float64 {
	var v []float64
	for _, r := range runs {
		if r.Env.Workload == workload && !r.Env.Traced {
			if m, ok := r.EndToEnd[metric]; ok {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

// compareSets prints, per workload and end-to-end metric, both sets'
// medians, how much worse (+) or better (−) the second is as a share
// of the first, and the metric's bound. aa marks a comparison of the
// code with itself: there a gap over the bound in either direction
// fails, and so does any difference in an exact metric. Otherwise
// only a worsening fails, and where the first set's own quartiles lie
// further apart than the bound the cell is unresolved, not unchanged —
// unless every run of the second set beats every run of the first.
func compareSets(a, b []*result, aa bool) (bool, error) {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	ok := true
	for _, w := range bf.Workloads {
		fmt.Printf("== %s\n", w.Name)
		fmt.Printf("   %-28s %14s %14s %9s %7s %7s  %s\n", "metric", "median A", "median B", "B worse", "bound", "IQR A", "verdict")
		for _, m := range bf.EndToEnd {
			va, vb := cell(a, w.Name, m.Name), cell(b, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("   %-28s missing from a set\n", m.Name)
				ok = false
				continue
			}
			q1, ma, q3 := quartiles(va)
			mb := median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			spread := (q3 - q1) / ma
			verdict := "ok"
			switch {
			case aa && exact[m.Name] && (ma != mb || spread != 0):
				verdict = "EXACT MISMATCH"
			case aa && (worse > m.Bound || -worse > m.Bound):
				verdict = "OVER BOUND"
			case !aa && worse > m.Bound:
				verdict = "WORSE"
			case !aa && spread > m.Bound && !allBetter(va, vb, m.Better):
				verdict = "unresolved"
			}
			if verdict != "ok" && verdict != "unresolved" {
				ok = false
			}
			fmt.Printf("   %-28s %14.4f %14.4f %+8.2f%% %6.0f%% %6.2f%%  %s\n", m.Name, ma, mb, 100*worse, 100*m.Bound, 100*spread, verdict)
		}
	}
	return ok, nil
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, better string) bool {
	for _, x := range a {
		for _, y := range b {
			if (better == "higher" && y <= x) || (better != "higher" && y >= x) {
				return false
			}
		}
	}
	return true
}

func compareFiles(parent, change string) (bool, error) {
	a, err := readResults(parent)
	if err != nil {
		return false, err
	}
	b, err := readResults(change)
	if err != nil {
		return false, err
	}
	return compareSets(a.Runs, b.Runs, false)
}

// runAA runs every workload 2n times at one seed, alternating between
// set A and set B, and compares the sets: the benchmark agreeing with
// itself within its own bounds.
func runAA(specs []workloadSpec, n int, seed int64, seconds float64, workDir, outDir string) (bool, error) {
	var sets [2]resultSet
	correct := true
	for i := 0; i < n; i++ {
		for s := range sets {
			for j := range specs {
				spec := &specs[j]
				dir := filepath.Join(workDir, fmt.Sprintf("%s-%d-%d", spec.name, i, s))
				res, err := measure(spec, defaults(seed, seconds, false), dir, outDir)
				if err != nil {
					return false, fmt.Errorf("%s: %w", spec.name, err)
				}
				if err := os.RemoveAll(dir); err != nil {
					return false, err
				}
				fmt.Fprintf(os.Stderr, "A/A %d/%d set %c %s: correct %v, %d rounds, %.1f s\n", i+1, n, 'A'+s, spec.name, res.Correct, res.Env.Rounds, res.Env.TotalWall)
				correct = correct && res.Correct
				sets[s].Runs = append(sets[s].Runs, res)
			}
		}
	}
	for s := range sets {
		if err := writeJSON(filepath.Join(outDir, fmt.Sprintf("aa-%c.json", 'a'+s)), &sets[s]); err != nil {
			return false, err
		}
	}
	ok, err := compareSets(sets[0].Runs, sets[1].Runs, true)
	return ok && correct, err
}
