// tbinstr statically instruments a module: it accepts MiniC source
// (.mc, compiled first) or a binary module (.tbm) and writes the
// instrumented module plus its reconstruction mapfile — the offline
// half of TraceBack (paper §2).
//
//	tbinstr -o build app.mc
//	tbinstr -dagbase 4096 -basefile bases.json lib.tbm
//	tbinstr -o build -fleetwith build/server.tb.tbm client.mc
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"traceback/internal/core"
	"traceback/internal/minic"
	"traceback/internal/module"
	"traceback/internal/verify"
	"traceback/internal/verify/fleet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges made explicit for in-process
// CLI tests: 0 written, 1 failed or refused (nothing written), 2
// usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tbinstr", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		outDir    = fs.String("o", ".", "output directory")
		dagBase   = fs.Uint("dagbase", 0, "default DAG ID base for the module")
		maxBits   = fs.Int("maxbits", 0, "cap on path bits per DAG record (0 = format maximum)")
		forceSp   = fs.Bool("forcespill", false, "ablation: always spill for lightweight probes")
		noBreak   = fs.Bool("nobreakatcalls", false, "ablation: omit call-return probes (UNSOUND reconstruction)")
		baseFile  = fs.String("basefile", "", "DAG base file (JSON) assigning bases by module name")
		emitPlain = fs.Bool("emit-module", false, "with .mc input: also write the uninstrumented module")
		doVerify  = fs.Bool("verify", true, "statically verify the instrumented output; refuse to write on errors")
		fleetWith = fs.String("fleetwith", "", "comma-separated .tbm peers: cross-module verify the output against them; refuse to write on errors")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: tbinstr [flags] <module.mc|module.tbm>")
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tbinstr:", err)
		return 1
	}
	in := fs.Arg(0)

	var mod *module.Module
	var err error
	switch {
	case strings.HasSuffix(in, ".mc") || strings.HasSuffix(in, ".c"):
		src, rerr := os.ReadFile(in)
		if rerr != nil {
			return fail(rerr)
		}
		name := strings.TrimSuffix(strings.TrimSuffix(filepath.Base(in), ".mc"), ".c")
		mod, err = minic.Compile(name, filepath.Base(in), string(src))
	default:
		mod, err = readModule(in)
	}
	if err != nil {
		return fail(err)
	}

	opts := core.Options{
		DAGBase:        uint32(*dagBase),
		MaxPathBits:    *maxBits,
		ForceSpill:     *forceSp,
		NoBreakAtCalls: *noBreak,
	}
	if *baseFile != "" {
		f, err := os.Open(*baseFile)
		if err != nil {
			return fail(err)
		}
		bases, err := module.LoadDAGBases(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
		if b, ok := bases.Bases[mod.Name]; ok {
			opts.DAGBase = b
		}
	}

	res, err := core.Instrument(mod, opts)
	if err != nil {
		return fail(err)
	}

	if *doVerify {
		vres := verify.Verify(res.Module, res.Map, verify.Options{})
		for _, d := range vres.Diags {
			if d.Severity != verify.SevInfo {
				fmt.Fprintln(stderr, "tbinstr:", d)
			}
		}
		if !vres.Ok() {
			return fail(fmt.Errorf("%s failed static verification (%d errors); refusing to write (use -verify=false to override)",
				mod.Name, vres.NumError))
		}
	}

	if *fleetWith != "" {
		inputs := []fleet.Input{{Module: res.Module, Path: in}}
		for _, peer := range strings.Split(*fleetWith, ",") {
			pm, err := readModule(peer)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", peer, err))
			}
			inputs = append(inputs, fleet.Input{Module: pm, Path: peer})
		}
		fres := fleet.Verify(inputs, fleet.Options{})
		for _, d := range fres.Diags {
			if d.Severity != verify.SevInfo {
				fmt.Fprintln(stderr, "tbinstr:", d)
			}
		}
		if !fres.Ok() {
			return fail(fmt.Errorf("%s failed cross-module verification against %s (%d errors); refusing to write",
				mod.Name, *fleetWith, fres.NumError))
		}
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fail(err)
	}
	write := func(name string, m *module.Module) (string, error) {
		path := filepath.Join(*outDir, name)
		f, err := os.Create(path)
		if err != nil {
			return "", err
		}
		if _, err := m.WriteTo(f); err != nil {
			f.Close()
			return "", err
		}
		return path, f.Close()
	}
	if *emitPlain {
		p, err := write(mod.Name+".tbm", mod)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s (uninstrumented)\n", p)
	}
	modPath, err := write(mod.Name+".tb.tbm", res.Module)
	if err != nil {
		return fail(err)
	}
	mapPath := filepath.Join(*outDir, mod.Name+".map.json")
	if err := module.WriteMapFile(mapPath, res.Map); err != nil {
		return fail(err)
	}

	s := res.Stats
	fmt.Fprintf(stdout, "wrote %s and %s\n", modPath, mapPath)
	fmt.Fprintf(stdout, "%s: %d funcs, %d blocks -> %d DAGs; %d heavy + %d light probes (%d spills); text +%.0f%%; checksum %s\n",
		mod.Name, s.Funcs, s.Blocks, s.DAGs, s.HeavyProbes, s.LightProbes, s.Spills,
		s.CodeGrowth()*100, res.Module.ChecksumHex())
	return 0
}

func readModule(path string) (*module.Module, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return module.Read(f)
}
