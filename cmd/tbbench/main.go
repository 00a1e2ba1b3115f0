// tbbench regenerates the paper's evaluation tables (§6), printing
// measured rows next to the paper's. Absolute numbers are VM cycle
// counts; the reproduction target is the shape.
//
//	tbbench -table all
//	tbbench -table 1 -scale 0.5
package main

import (
	"flag"
	"fmt"
	"os"

	"traceback/internal/core"
	"traceback/internal/workload"
)

func main() {
	var (
		table = flag.String("table", "all", "which result to regenerate: 1, 2, 3, petshop, ablation, all")
		scale = flag.Float64("scale", 1.0, "work scale factor for Table 1 (smaller = faster)")
	)
	flag.Parse()

	run := map[string]bool{}
	if *table == "all" {
		for _, t := range []string{"1", "2", "3", "petshop", "ablation"} {
			run[t] = true
		}
	} else {
		run[*table] = true
	}

	if run["1"] {
		table1(*scale)
	}
	if run["2"] {
		table2()
	}
	if run["3"] {
		table3()
	}
	if run["petshop"] {
		petshop()
	}
	if run["ablation"] {
		ablations(*scale)
	}
}

func table1(scale float64) {
	fmt.Println("== Table 1: SPECint2000, Normal vs TraceBack (cycles) ==")
	fmt.Printf("%-9s %13s %13s %7s %7s\n", "Test", "Normal", "TraceBack", "Ratio", "Paper")
	rs, geo, paperGeo, err := workload.RunSpecSuite(scale)
	if err != nil {
		fatal(err)
	}
	for _, r := range rs {
		fmt.Printf("%-9s %13d %13d %7.2f %7.2f\n", r.Name, r.Normal, r.TraceBack, r.Ratio, r.PaperRatio)
	}
	fmt.Printf("%-9s %13s %13s %7.2f %7.2f\n\n", "GeoMean", "", "", geo, paperGeo)
}

func table2() {
	fmt.Println("== Table 2: SPECweb99 on the Apache-like server (paper ratio ~1.05) ==")
	r, err := workload.RunWeb(40)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-14s %10s %10s %7s\n", "Metric", "Normal", "TraceBack", "Ratio")
	fmt.Printf("%-14s %10.1f %10.1f %7.3f\n", "Response(ms)", r.ResponseNormal, r.ResponseTB, r.ResponseTB/r.ResponseNormal)
	fmt.Printf("%-14s %10.1f %10.1f %7.3f\n", "ops/sec", r.OpsNormal, r.OpsTB, r.OpsNormal/r.OpsTB)
	fmt.Printf("%-14s %10.0f %10.0f %7.3f\n\n", "Kbits/sec", r.KbitsNormal, r.KbitsTB, r.KbitsNormal/r.KbitsTB)
}

func table3() {
	fmt.Println("== Table 3: SPECjbb warehouses (throughput; ratio = Normal/TraceBack) ==")
	fmt.Printf("%-8s %10s %10s %7s %7s\n", "System", "Normal", "TraceBack", "Ratio", "Paper")
	for _, sys := range workload.JbbSystems {
		for _, wh := range []int{1, 5} {
			r, err := workload.RunJbb(sys, wh, 4000)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-8s %10.1f %10.1f %7.3f %7.3f\n",
				fmt.Sprintf("%s %dW", r.System, r.Warehouses), r.Normal, r.TraceBack, r.Ratio, r.PaperRatio)
		}
	}
	fmt.Println()
}

func petshop() {
	fmt.Println("== PetShop: managed web app (paper: ~1% throughput drop) ==")
	r, err := workload.RunPetShop(6, 500)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("req/sec: %.0f -> %.0f (drop %.2f%%)\n\n", r.ReqPerSecNormal, r.ReqPerSecTB, r.Drop*100)
}

func ablations(scale float64) {
	fmt.Println("== Ablations (DESIGN.md §4) ==")
	rs, err := workload.RunAblations(scale)
	if err != nil {
		fatal(err)
	}
	for _, r := range rs {
		fmt.Printf("%-8s %-20s ratio %.2f (default %.2f)\n", r.Name, r.Variant, r.Ratio, r.Baseline)
	}
	p, _ := workload.SpecByName("gzip")
	spill, err := workload.RunSpec(p, scale, core.Options{ForceSpill: true})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("gzip forced spills touch %d probes\n", spill.Spills)
	off, on, err := workload.SubBufferOverhead(scale, 4)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("sub-buffering: %d -> %d cycles (+%.2f%%)\n\n", off, on, (float64(on)/float64(off)-1)*100)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tbbench:", err)
	os.Exit(1)
}
