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
	var (
		outDir    = flag.String("o", ".", "output directory")
		dagBase   = flag.Uint("dagbase", 0, "default DAG ID base for the module")
		maxBits   = flag.Int("maxbits", 0, "cap on path bits per DAG record (0 = format maximum)")
		forceSp   = flag.Bool("forcespill", false, "ablation: always spill for lightweight probes")
		noBreak   = flag.Bool("nobreakatcalls", false, "ablation: omit call-return probes (UNSOUND reconstruction)")
		baseFile  = flag.String("basefile", "", "DAG base file (JSON) assigning bases by module name")
		emitPlain = flag.Bool("emit-module", false, "with .mc input: also write the uninstrumented module")
		doVerify  = flag.Bool("verify", true, "statically verify the instrumented output; refuse to write on errors")
		fleetWith = flag.String("fleetwith", "", "comma-separated .tbm peers: cross-module verify the output against them; refuse to write on errors")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tbinstr [flags] <module.mc|module.tbm>")
		flag.Usage()
		os.Exit(2)
	}
	in := flag.Arg(0)

	var mod *module.Module
	var err error
	switch {
	case strings.HasSuffix(in, ".mc") || strings.HasSuffix(in, ".c"):
		src, rerr := os.ReadFile(in)
		if rerr != nil {
			fatal(rerr)
		}
		name := strings.TrimSuffix(strings.TrimSuffix(filepath.Base(in), ".mc"), ".c")
		mod, err = minic.Compile(name, filepath.Base(in), string(src))
	default:
		f, rerr := os.Open(in)
		if rerr != nil {
			fatal(rerr)
		}
		mod, err = module.Read(f)
		f.Close()
	}
	if err != nil {
		fatal(err)
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
			fatal(err)
		}
		bases, err := module.LoadDAGBases(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if b, ok := bases.Bases[mod.Name]; ok {
			opts.DAGBase = b
		}
	}

	res, err := core.Instrument(mod, opts)
	if err != nil {
		fatal(err)
	}

	if *doVerify {
		vres := verify.Verify(res.Module, res.Map, verify.Options{})
		for _, d := range vres.Diags {
			if d.Severity != verify.SevInfo {
				fmt.Fprintln(os.Stderr, "tbinstr:", d)
			}
		}
		if !vres.Ok() {
			fatal(fmt.Errorf("%s failed static verification (%d errors); refusing to write (use -verify=false to override)",
				mod.Name, vres.NumError))
		}
	}

	if *fleetWith != "" {
		inputs := []fleet.Input{{Module: res.Module, Path: in}}
		for _, peer := range strings.Split(*fleetWith, ",") {
			f, err := os.Open(peer)
			if err != nil {
				fatal(err)
			}
			pm, err := module.Read(f)
			f.Close()
			if err != nil {
				fatal(fmt.Errorf("%s: %w", peer, err))
			}
			inputs = append(inputs, fleet.Input{Module: pm, Path: peer})
		}
		fres := fleet.Verify(inputs, fleet.Options{})
		for _, d := range fres.Diags {
			if d.Severity != verify.SevInfo {
				fmt.Fprintln(os.Stderr, "tbinstr:", d)
			}
		}
		if !fres.Ok() {
			fatal(fmt.Errorf("%s failed cross-module verification against %s (%d errors); refusing to write",
				mod.Name, *fleetWith, fres.NumError))
		}
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	write := func(name string, w func(*os.File) error) string {
		path := filepath.Join(*outDir, name)
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := w(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		return path
	}
	if *emitPlain {
		p := write(mod.Name+".tbm", func(f *os.File) error { _, err := mod.WriteTo(f); return err })
		fmt.Printf("wrote %s (uninstrumented)\n", p)
	}
	modPath := write(mod.Name+".tb.tbm", func(f *os.File) error { _, err := res.Module.WriteTo(f); return err })
	mapPath := filepath.Join(*outDir, mod.Name+".map.json")
	if err := module.WriteMapFile(mapPath, res.Map); err != nil {
		fatal(err)
	}

	s := res.Stats
	fmt.Printf("wrote %s and %s\n", modPath, mapPath)
	fmt.Printf("%s: %d funcs, %d blocks -> %d DAGs; %d heavy + %d light probes (%d spills); text +%.0f%%; checksum %s\n",
		mod.Name, s.Funcs, s.Blocks, s.DAGs, s.HeavyProbes, s.LightProbes, s.Spills,
		s.CodeGrowth()*100, res.Module.ChecksumHex())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tbinstr:", err)
	os.Exit(1)
}
