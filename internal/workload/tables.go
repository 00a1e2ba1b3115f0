package workload

import (
	"fmt"
	"math"
	"strings"

	"traceback/internal/core"
	"traceback/internal/tbrt"
)

// The published scale: the workload sizes every number in
// EXPERIMENTS.md is measured at. Table 1 runs each kernel at its
// SpecProgram.Arg.
const (
	webRequestsPerConn  = 40
	jbbTxnsPerWarehouse = 4000
	petShopWorkers      = 6
	petShopRequests     = 500
	subBuffersOn        = 4
)

// Tables is every number of the paper's evaluation (§6): Tables 1–3,
// the PetShop paragraph and the ablations, each measured once at the
// published scale.
type Tables struct {
	spec                  []specResult // Table 1, in SpecInt order
	geoMean, paperGeoMean float64
	web                   webResult   // Table 2
	jbb                   []JbbResult // Table 3: each system at 1, then 5 warehouses
	petShop               petShopResult
	ablations             []ablationResult // force-spill, no-break-at-calls, max-path-bits-4, -2
	subBuf                [2]uint64        // gzip cycles with 1 and subBuffersOn sub-buffers
}

// RunTables measures every table. The ablations reuse the Table 1
// rows for their uninstrumented runs and baselines, so each run
// happens once: 52 of them.
func RunTables() (*Tables, error) {
	t := &Tables{}
	byName := map[string]specResult{}
	logSum, paperLogSum := 0.0, 0.0
	for _, p := range SpecInt {
		r, err := runSpec(p, p.Arg)
		if err != nil {
			return nil, err
		}
		t.spec = append(t.spec, r)
		byName[r.Name] = r
		logSum += math.Log(r.Ratio)
		paperLogSum += math.Log(r.PaperRatio)
	}
	t.geoMean = math.Exp(logSum / float64(len(t.spec)))
	t.paperGeoMean = math.Exp(paperLogSum / float64(len(t.spec)))

	var err error
	if t.web, err = runWeb(); err != nil {
		return nil, err
	}
	for _, sys := range JbbSystems {
		for _, wh := range []int{1, 5} {
			r, err := RunJbb(sys, wh, jbbTxnsPerWarehouse)
			if err != nil {
				return nil, err
			}
			t.jbb = append(t.jbb, r)
		}
	}
	if t.petShop, err = runPetShop(); err != nil {
		return nil, err
	}

	// The design-choice ablations DESIGN.md §4 calls out, on the
	// kernels where each matters most.
	for _, a := range []struct {
		prog, variant string
		opts          core.Options
	}{
		// Probe register scavenging vs forced spills (the gzip story).
		{"gzip", "force-spill", core.Options{ForceSpill: true}},
		// DAG breaks at calls (the §2.2 requirement) on the call-dense
		// kernel. Reconstruction is unsound without the breaks; this
		// measures their cost only.
		{"perlbmk", "no-break-at-calls", core.Options{NoBreakAtCalls: true}},
		// Path-bit budget: fewer bits => more heavyweight probes.
		{"gcc", "max-path-bits-4", core.Options{MaxPathBits: 4}},
		{"gcc", "max-path-bits-2", core.Options{MaxPathBits: 2}},
	} {
		r, err := runAblation(byName[a.prog], a.variant, a.opts)
		if err != nil {
			return nil, err
		}
		t.ablations = append(t.ablations, r)
	}
	// Sub-buffering (paper §3.2) off and on, on gzip with small buffers.
	gzip := byName["gzip"]
	for i, subs := range []int{1, subBuffersOn} {
		p, _, err := runTraced(gzip, core.Options{}, tbrt.Config{BufferWords: 4096, SubBuffers: subs})
		if err != nil {
			return nil, err
		}
		t.subBuf[i] = p.Cycles
	}
	return t, nil
}

// String renders the tables as the text committed under
// internal/workload/testdata: each row next to the paper's, with the
// raw cycle counts every derived number comes from.
func (t *Tables) String() string {
	var b strings.Builder
	p := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }

	p("== Table 1: SPECint2000, Normal vs TraceBack (cycles) ==\n")
	p("%-9s %13s %13s %7s %7s\n", "Test", "Normal", "TraceBack", "Ratio", "Paper")
	for _, r := range t.spec {
		p("%-9s %13d %13d %7.2f %7.2f\n", r.Name, r.Normal, r.TraceBack, r.Ratio, r.PaperRatio)
	}
	p("%-9s %13s %13s %7.2f %7.2f\n\n", "GeoMean", "", "", t.geoMean, t.paperGeoMean)

	w := t.web
	p("== Table 2: SPECweb99 on the Apache-like server (paper ratio ~1.05) ==\n")
	p("%-14s %10s %10s %7s\n", "Metric", "Normal", "TraceBack", "Ratio")
	p("%-14s %10.1f %10.1f %7.3f\n", "Response(ms)", w.ResponseNormal, w.ResponseTB, w.ResponseTB/w.ResponseNormal)
	p("%-14s %10.1f %10.1f %7.3f\n", "ops/sec", w.OpsNormal, w.OpsTB, w.OpsNormal/w.OpsTB)
	p("%-14s %10.0f %10.0f %7.3f\n", "Kbits/sec", w.KbitsNormal, w.KbitsTB, w.KbitsNormal/w.KbitsTB)
	p("%-14s %10d %10d %7.3f\n\n", "cycles", w.Normal, w.TraceBack, float64(w.TraceBack)/float64(w.Normal))

	p("== Table 3: SPECjbb warehouses (throughput; ratio = Normal/TraceBack) ==\n")
	p("%-8s %10s %10s %7s %7s %11s %11s\n", "System", "Normal", "TraceBack", "Ratio", "Paper", "Normal cyc", "TB cyc")
	for _, r := range t.jbb {
		p("%-8s %10.1f %10.1f %7.3f %7.3f %11d %11d\n", fmt.Sprintf("%s %dW", r.System, r.Warehouses),
			r.Normal, r.TraceBack, r.Ratio, r.PaperRatio, r.NormalCycles, r.TraceBackCycles)
	}
	p("\n")

	s := t.petShop
	p("== PetShop: managed web app (paper: ~1%% throughput drop) ==\n")
	p("req/sec: %.0f -> %.0f (drop %.2f%%)\n", s.ReqPerSecNormal, s.ReqPerSecTB, s.Drop*100)
	p("cycles: %d -> %d\n\n", s.Normal, s.TraceBack)

	p("== Ablations (DESIGN.md §4) ==\n")
	for _, a := range t.ablations {
		p("%-8s %-20s ratio %.2f (default %.2f)  cycles %d -> %d\n", a.Name, a.Variant, a.Ratio, a.Baseline, a.Normal, a.TraceBack)
	}
	p("%s forced spills touch %d probes\n", t.ablations[0].Name, t.ablations[0].Spills)
	p("sub-buffering: %d -> %d cycles (+%.2f%%)\n", t.subBuf[0], t.subBuf[1], (float64(t.subBuf[1])/float64(t.subBuf[0])-1)*100)
	return b.String()
}

// Check holds the tables to the shape EXPERIMENTS.md claims for them
// and returns an error naming every claim that no longer holds.
func (t *Tables) Check() error {
	var lost []string
	claim := func(holds bool, format string, args ...any) {
		if !holds {
			lost = append(lost, fmt.Sprintf(format, args...))
		}
	}

	byName := map[string]specResult{}
	for _, r := range t.spec {
		byName[r.Name] = r
		claim(r.Ratio > 1.0 && r.Ratio <= 3.5, "Table 1: %s ratio %.2f is outside (1.0, 3.5]", r.Name, r.Ratio)
		claim(r.CodeGrowth > 0.05 && r.CodeGrowth <= 1.0, "Table 1: %s code growth %.2f is outside (0.05, 1.0]", r.Name, r.CodeGrowth)
	}
	perl := byName["perlbmk"]
	for _, r := range t.spec {
		claim(r.Name == perl.Name || r.Ratio < perl.Ratio,
			"Table 1: perlbmk (%.2f) is not the most expensive program: %s is %.2f", perl.Ratio, r.Name, r.Ratio)
	}
	for _, m := range []string{"art", "equake", "ammp", "mcf"} {
		for _, d := range []string{"perlbmk", "vortex", "gcc", "parser"} {
			claim(byName[m].Ratio < byName[d].Ratio, "Table 1: memory-bound %s (%.2f) is not cheaper than call-dense %s (%.2f)",
				m, byName[m].Ratio, d, byName[d].Ratio)
		}
	}
	claim(math.Abs(t.geoMean-t.paperGeoMean) <= 0.04,
		"Table 1: geomean %.3f is not within 0.04 of the paper's %.3f", t.geoMean, t.paperGeoMean)

	w := t.web
	claim(w.Ratio >= 1.005 && w.Ratio <= 1.15, "Table 2: response ratio %.3f is outside [1.005, 1.15]", w.Ratio)
	claim(w.OpsTB < w.OpsNormal && w.KbitsTB < w.KbitsNormal, "Table 2: TraceBack throughput is not below Normal")

	for i, r := range t.jbb {
		claim(r.Ratio >= 1.16 && r.Ratio <= 1.28, "Table 3: %s %dW ratio %.3f is outside the managed band [1.16, 1.28]",
			r.System, r.Warehouses, r.Ratio)
		if one := t.jbb[i-i%2]; i%2 == 1 {
			claim(r.Ratio > one.Ratio, "Table 3: %s 5W (%.3f) does not exceed 1W (%.3f)", r.System, r.Ratio, one.Ratio)
		}
		if win := t.jbb[i%2]; i >= 2 {
			claim(win.Ratio < r.Ratio, "Table 3: Win is not the cheapest at %dW: Win %.3f, %s %.3f", r.Warehouses, win.Ratio, r.System, r.Ratio)
		}
	}

	claim(t.petShop.Drop >= 0 && t.petShop.Drop <= 0.05, "PetShop: throughput drop %.2f%% is outside [0, 5%%]", t.petShop.Drop*100)

	fs, nb, b4, b2 := t.ablations[0], t.ablations[1], t.ablations[2], t.ablations[3]
	claim(fs.Ratio > fs.Baseline, "ablation: forced spills (%.2f) do not cost more than scavenged registers (%.2f)", fs.Ratio, fs.Baseline)
	claim(nb.Ratio < nb.Baseline, "ablation: dropping the call-return probes (%.2f) is not cheaper than the sound default (%.2f)", nb.Ratio, nb.Baseline)
	claim(b2.Ratio > b4.Ratio, "ablation: 2 path bits (%.2f) do not cost more than 4 (%.2f)", b2.Ratio, b4.Ratio)
	sub := float64(t.subBuf[1]) / float64(t.subBuf[0])
	claim(sub >= 0.99 && sub <= 1.25, "ablation: sub-buffering cycle ratio %.3f is outside [0.99, 1.25]", sub)

	if len(lost) > 0 {
		return fmt.Errorf("the tables lost their published shape:\n  %s", strings.Join(lost, "\n  "))
	}
	return nil
}
