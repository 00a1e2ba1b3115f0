// tbrun loads modules into a process on the synthetic machine and
// runs it with the TraceBack runtime attached. Snaps (from exceptions,
// the snap API, or abrupt termination) are written to disk for
// offline reconstruction with tbrecon.
//
//	tbrun -snapdir snaps app.tb.tbm
//	tbrun -policy policy.txt -arg 3 lib.tb.tbm app.tb.tbm
//	tbrun -kill-after 50000 app.tb.tbm     # abrupt kill, post-mortem snap
//	tbrun -metrics - app.tb.tbm            # Prometheus exposition on stdout
//	tbrun -events flight.json app.tb.tbm   # flight-recorder dump for tbdump -events
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"traceback/internal/module"
	"traceback/internal/snap"
	"traceback/internal/tbrt"
	"traceback/internal/telemetry"
	"traceback/internal/verify"
	"traceback/internal/vm"
)

func main() {
	var (
		policyPath = flag.String("policy", "", "textual policy file (default: snap on everything)")
		snapDir    = flag.String("snapdir", "snaps", "directory for snap files")
		arg        = flag.Uint64("arg", 0, "argument passed to main")
		bufWords   = flag.Int("bufwords", 16384, "trace buffer size in words")
		numBufs    = flag.Int("buffers", 8, "number of main trace buffers")
		subBufs    = flag.Int("subbuffers", 4, "sub-buffers per buffer")
		killAfter  = flag.Int("kill-after", 0, "kill -9 the process after N scheduling quanta")
		maxSteps   = flag.Int("maxsteps", 50_000_000, "scheduling quantum budget")
		seed       = flag.Int64("seed", 42, "machine PRNG seed")
		metricsTo  = flag.String("metrics", "", "write runtime+VM metrics to this file on exit (- = stdout; .json = JSON, else Prometheus text)")
		eventsTo   = flag.String("events", "", "write the flight-recorder event dump (JSON) to this file on exit")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: tbrun [flags] <module.tbm> [more modules...]")
		flag.Usage()
		os.Exit(2)
	}

	// One registry is shared by the runtime and the VM, so the
	// exposition shows tbrt_ and vm_ metrics side by side and the
	// flight recorder interleaves events from both layers.
	reg := telemetry.New()
	cfg := tbrt.Config{
		BufferWords: *bufWords,
		NumBuffers:  *numBufs,
		SubBuffers:  *subBufs,
		Policy:      tbrt.DefaultPolicy(),
		Telemetry:   reg,
	}
	if *policyPath != "" {
		f, err := os.Open(*policyPath)
		if err != nil {
			fatal(err)
		}
		pol, err := tbrt.ParsePolicy(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		cfg.Policy = pol
	}

	if err := os.MkdirAll(*snapDir, 0o755); err != nil {
		fatal(err)
	}
	snapN := 0
	cfg.SnapSink = func(s *snap.Snap) {
		snapN++
		path := filepath.Join(*snapDir, fmt.Sprintf("%s-%d.snap.json", s.Process, snapN))
		if err := writeSnap(path, s); err != nil {
			fatal(err)
		}
		fmt.Printf("snap: %s (%s)\n", path, s.Reason)
	}

	world := vm.NewWorld(*seed)
	mach := world.NewMachine("tbrun-host", 0)
	mach.EnableTelemetry(reg)
	name := filepath.Base(flag.Arg(flag.NArg() - 1))
	proc, rt, err := tbrt.NewProcess(mach, name, cfg)
	if err != nil {
		fatal(err)
	}
	vmetrics := verify.NewMetrics(reg)
	rec := reg.FlightRecorder()
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		mod, err := module.Read(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		if _, err := proc.Load(mod); err != nil {
			fatal(err)
		}
		tag := "uninstrumented"
		if mod.Instrumented {
			tag = fmt.Sprintf("%d DAGs", mod.DAGCount)
			// Verification provenance: the trace this run produces is
			// only as trustworthy as the module's probes, so record
			// whether they check out (module-only: no mapfile at run
			// time).
			vres := verify.Verify(mod, nil, verify.Options{})
			vmetrics.Observe(vres)
			if vres.Ok() {
				tag += ", verified"
				rec.Record(0, "module-verified", mod.Name)
			} else {
				tag += fmt.Sprintf(", VERIFY FAILED: %d errors", vres.NumError)
				rec.Record(0, "module-verify-failed", mod.Name)
				for _, d := range vres.Diags {
					if d.Severity == verify.SevError {
						fmt.Fprintln(os.Stderr, "tbrun:", d)
					}
				}
			}
		}
		fmt.Printf("loaded %s (%s)\n", mod.Name, tag)
	}
	if _, err := proc.StartMain(*arg); err != nil {
		fatal(err)
	}

	if *killAfter > 0 {
		world.Run(*killAfter, func() bool { return proc.Exited })
		if !proc.Exited {
			fmt.Println("kill -9")
			mach.KillProcess(proc)
			rt.PostMortemSnap()
		}
	} else {
		world.Run(*maxSteps, func() bool { return proc.Exited })
	}

	os.Stdout.Write(proc.Out)
	switch {
	case !proc.Exited:
		fmt.Println("process did not finish (hung?); taking an external snap")
		rt.TakeSnap(tbrt.SnapReason{Kind: "external", Detail: "tbrun timeout"})
	case proc.FatalSignal != 0:
		fmt.Printf("process terminated: %s\n", vm.SignalName(proc.FatalSignal))
	default:
		fmt.Printf("process exited normally: status %d (%d cycles)\n", proc.ExitCode, proc.Cycles)
	}

	if *metricsTo != "" {
		if err := reg.WriteFile(*metricsTo, os.Stdout); err != nil {
			fatal(err)
		}
	}
	if *eventsTo != "" {
		f, err := os.Create(*eventsTo)
		if err != nil {
			fatal(err)
		}
		err = reg.FlightRecorder().WriteJSON(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
}

// writeSnap writes s to path as plain JSON. The bytes go to a
// dot-named temp file in the same directory first (a name
// snap.IsFileName ignores) and reach path by rename, so a tbagent
// watching the directory never reads a partial snap.
func writeSnap(path string, s *snap.Snap) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	// CreateTemp makes the file private; a snap stays as readable as
	// os.Create would have left it.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := s.Save(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tbrun:", err)
	os.Exit(1)
}
