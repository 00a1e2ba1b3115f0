// tbrun loads modules into a process on the synthetic machine and
// runs it with the TraceBack runtime attached. Snaps (from exceptions,
// the snap API, or abrupt termination) are written to disk as
// <proc>-<n>.snap.json.gz for offline reconstruction with tbrecon.
//
//	tbrun -snapdir snaps app.tb.tbm
//	tbrun -policy policy.txt -arg 3 lib.tb.tbm app.tb.tbm
//	tbrun -kill-after 50000 app.tb.tbm     # abrupt kill, post-mortem snap
//	tbrun -metrics - app.tb.tbm            # Prometheus exposition on stdout
//	tbrun -metrics run.json app.tb.tbm     # JSON, flight-recorder events included
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"traceback/internal/module"
	"traceback/internal/scenario"
	"traceback/internal/snap"
	"traceback/internal/tbrt"
	"traceback/internal/telemetry"
	"traceback/internal/verify"
	"traceback/internal/vm"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges made explicit for in-process
// CLI tests: 0 the run finished (whatever the program did), 1 a load,
// snap or output failure, 2 usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tbrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		policyPath = fs.String("policy", "", "textual policy file (default: snap on everything)")
		snapDir    = fs.String("snapdir", "snaps", "directory for snap files")
		arg        = fs.Uint64("arg", 0, "argument passed to main")
		killAfter  = fs.Int("kill-after", 0, "kill -9 the process after N scheduling quanta")
		maxSteps   = fs.Int("maxsteps", 50_000_000, "scheduling quantum budget")
		seed       = fs.Int64("seed", 42, "machine PRNG seed")
		metricsTo  = fs.String("metrics", "", "write runtime+VM metrics to this file on exit (- = stdout; .json = JSON with the flight-recorder events, else Prometheus text)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 {
		fmt.Fprintln(stderr, "usage: tbrun [flags] <module.tbm> [more modules...]")
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tbrun:", err)
		return 1
	}

	// One registry is shared by the runtime and the VM, so the
	// exposition shows tbrt_ and vm_ metrics side by side and the
	// flight recorder interleaves events from both layers.
	reg := telemetry.New()
	cfg := tbrt.Config{Policy: tbrt.DefaultPolicy(), Telemetry: reg}
	if *policyPath != "" {
		f, err := os.Open(*policyPath)
		if err != nil {
			return fail(err)
		}
		pol, err := tbrt.ParsePolicy(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
		cfg.Policy = pol
	}

	if err := os.MkdirAll(*snapDir, 0o755); err != nil {
		return fail(err)
	}
	// A snap that cannot be written stops the run; sinkErr carries the
	// first such failure out of the runtime's callback.
	snapN := 0
	var sinkErr error
	cfg.SnapSink = func(s *snap.Snap) {
		if sinkErr != nil {
			return
		}
		snapN++
		path := filepath.Join(*snapDir, fmt.Sprintf("%s-%d.snap.json.gz", s.Process, snapN))
		if sinkErr = snap.SaveFile(path, s); sinkErr == nil {
			fmt.Fprintf(stdout, "snap: %s (%s)\n", path, s.Reason)
		}
	}

	var mods []*module.Module
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return fail(err)
		}
		mod, err := module.Read(f)
		f.Close()
		if err != nil {
			return fail(fmt.Errorf("%s: %w", path, err))
		}
		mods = append(mods, mod)
	}
	name := filepath.Base(fs.Arg(fs.NArg() - 1))
	setup, err := scenario.Launch(scenario.Spec{Seed: *seed, Machines: []scenario.MachineSpec{{Name: "tbrun-host"}},
		Procs: []scenario.ProcSpec{{Role: name, Modules: mods, Config: &cfg, Arg: *arg}}})
	if err != nil {
		return fail(err)
	}
	proc, rt := setup.Procs[name], setup.Runtimes[name]
	vmetrics := verify.NewMetrics(reg)
	rec := reg.FlightRecorder()
	for _, mod := range mods {
		tag := "uninstrumented"
		if mod.Instrumented {
			tag = fmt.Sprintf("%d DAGs", mod.DAGCount)
			// Verification provenance: the trace this run produces is
			// only as trustworthy as the module's probes, so record
			// whether they check out (module-only: no mapfile at run
			// time).
			vres := verify.Verify([]verify.Input{{Module: mod}}, verify.Options{})
			vmetrics.Observe(vres)
			if vres.Ok() {
				tag += ", verified"
				rec.Record(0, "module-verified", mod.Name)
			} else {
				tag += fmt.Sprintf(", VERIFY FAILED: %d errors", vres.NumError)
				rec.Record(0, "module-verify-failed", mod.Name)
				for _, d := range vres.Diags {
					if d.Severity == verify.SevError {
						fmt.Fprintln(stderr, "tbrun:", d)
					}
				}
			}
		}
		fmt.Fprintf(stdout, "loaded %s (%s)\n", mod.Name, tag)
	}

	stop := func() bool { return proc.Exited || sinkErr != nil }
	if *killAfter > 0 {
		setup.World.Run(*killAfter, stop)
		if !proc.Exited && sinkErr == nil {
			fmt.Fprintln(stdout, "kill -9")
			proc.Machine.KillProcess(proc)
			rt.PostMortemSnap()
		}
	} else {
		setup.World.Run(*maxSteps, stop)
	}
	if sinkErr != nil {
		return fail(sinkErr)
	}

	stdout.Write(proc.Out)
	switch {
	case !proc.Exited:
		fmt.Fprintln(stdout, "process did not finish (hung?); taking an external snap")
		rt.TakeSnap(tbrt.SnapReason{Kind: "external", Detail: "tbrun timeout"})
		if sinkErr != nil {
			return fail(sinkErr)
		}
	case proc.FatalSignal != 0:
		fmt.Fprintf(stdout, "process terminated: %s\n", vm.SignalName(proc.FatalSignal))
	default:
		fmt.Fprintf(stdout, "process exited normally: status %d (%d cycles)\n", proc.ExitCode, proc.Cycles)
	}

	if *metricsTo != "" {
		if err := reg.WriteFile(*metricsTo, stdout); err != nil {
			return fail(err)
		}
	}
	return 0
}
