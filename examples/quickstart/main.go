// Quickstart: the minimal first-fault-diagnosis loop.
//
// A MiniC program with a latent bug (app.mc) is compiled, statically
// instrumented, and run — the "quickstart" scenario, the same world
// the committed snap fleet is made of. It crashes; the TraceBack
// runtime snaps at the first-chance exception; reconstruction turns
// the snap plus the instrumentation mapfile back into a line-by-line
// source trace ending at the exact faulting line — without re-running
// anything.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"traceback/internal/recon"
	"traceback/internal/scenario"
	"traceback/internal/vm"
)

func main() {
	// 1–2. Compile the application (the stand-in for a production
	// binary: code + line tables, no source needed afterwards) and
	// instrument it: DAG tiling, probe insertion, mapfile.
	s, err := scenario.Build("quickstart", scenario.Options{})
	if err != nil {
		log.Fatal(err)
	}
	mf, st := s.Maps[0], s.Stats["app"]
	fmt.Printf("instrumented %q: %d DAGs, %d heavy + %d light probes, text +%.0f%%\n\n",
		mf.ModuleName, mf.DAGCount, st.HeavyProbes, st.LightProbes, st.CodeGrowth()*100)

	// 3. Run it in production (mode=1 triggers the latent bug).
	s.Run(0)
	fmt.Printf("process exited: signal=%s\n", vm.SignalName(s.Procs["app"].FatalSignal))

	// 4. The runtime snapped at the exception. Reconstruct.
	b, err := s.Collect()
	if err != nil {
		log.Fatal(err)
	}
	maps := scenario.MapSet(b)
	pt, err := recon.Reconstruct(b.Snaps[0], maps)
	if err != nil {
		log.Fatal(err)
	}

	// 5. Render with source context — the fault-directed view — and
	// the variable values captured by the snap's memory dump.
	fmt.Println()
	recon.Render(os.Stdout, pt, recon.RenderOptions{
		Source: func(file string) []string { return s.Sources[file] },
	})
	fmt.Println()
	recon.RenderVariables(os.Stdout, b.Snaps[0], maps)
	fmt.Println("\nThe '>' marker is the faulting line; stepping back shows")
	fmt.Println("load_config taking the mode==1 arm that zeroed the divisor —")
	fmt.Println("and the globals view confirms denom == 0 at the moment of the snap.")
}
