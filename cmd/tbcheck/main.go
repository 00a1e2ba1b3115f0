// tbcheck statically verifies instrumentation invariants: probe
// coverage, probe safety, module/mapfile consistency, and trace-record
// decodability (the internal/verify pass suite). It accepts MiniC
// source (.mc, compiled and instrumented in memory), instrumented
// binary modules (.tbm, with the mapfile found alongside or given via
// -map), or bare mapfiles (.map.json, structural validation only).
//
//	tbcheck app.mc
//	tbcheck -json build/app.tb.tbm
//	tbcheck -map build/app.map.json build/app.tb.tbm
//	tbcheck -broken internal/verify/testdata/corpus/*.tbm
//
// With -fleet, all inputs together form one module set and the
// cross-module pass suite (internal/verify/fleet) runs over it
// instead: the static RPC call graph must have no unserved endpoints,
// every recv must reply on every path, and no module's probe words
// may make a trace buffer ambiguous to backward mining. A directory
// argument stands for the .tbm/.mc files inside it; with -broken,
// each directory is one seeded-broken fleet that must be flagged.
//
//	tbcheck -fleet examples/crossmachine/client.mc examples/crossmachine/server.mc
//	tbcheck -fleet -broken internal/verify/testdata/corpus/fleet/*/
//
// Exit status: 0 clean (or, with -broken, every input flagged), 1 at
// least one error-level diagnostic (with -werror: or warning), 2 bad
// usage or unreadable input. With -json, one JSON result object is
// printed per input, one per line.
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

type config struct {
	json     bool
	werror   bool
	broken   bool
	fleet    bool
	passes   string
	maxPaths int
	mapPath  string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tbcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.BoolVar(&cfg.json, "json", false, "emit one JSON result per input instead of text diagnostics")
	fs.BoolVar(&cfg.werror, "werror", false, "treat warnings as errors for the exit status")
	fs.BoolVar(&cfg.broken, "broken", false, "negative mode: every input must produce at least one error")
	fs.BoolVar(&cfg.fleet, "fleet", false, "cross-module mode: verify all inputs together as one module set")
	fs.StringVar(&cfg.passes, "passes", "", "comma-separated pass subset (default all): "+
		strings.Join(verify.AllPasses(), ",")+"; with -fleet: "+strings.Join(fleet.AllPasses(), ","))
	fs.IntVar(&cfg.maxPaths, "maxpaths", 0, "cap on per-DAG path enumeration (0 = default)")
	fs.StringVar(&cfg.mapPath, "map", "", "explicit mapfile for a .tbm input (default: sibling <name>.map.json)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: tbcheck [flags] <input.mc|input.tbm|input.map.json> ...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	if cfg.mapPath != "" && fs.NArg() > 1 {
		fmt.Fprintln(stderr, "tbcheck: -map applies to a single .tbm input")
		return 2
	}
	if cfg.fleet {
		if cfg.mapPath != "" {
			fmt.Fprintln(stderr, "tbcheck: -map has no meaning in -fleet mode")
			return 2
		}
		return runFleet(cfg, fs.Args(), stdout, stderr)
	}

	opts := verify.Options{MaxPaths: cfg.maxPaths}
	if cfg.passes != "" {
		opts.Passes = strings.Split(cfg.passes, ",")
		known := map[string]bool{}
		for _, p := range verify.AllPasses() {
			known[p] = true
		}
		for _, p := range opts.Passes {
			if !known[p] {
				fmt.Fprintf(stderr, "tbcheck: unknown pass %q\n", p)
				return 2
			}
		}
	}

	status := 0
	for _, in := range fs.Args() {
		res, err := checkOne(in, cfg, opts)
		if err != nil {
			fmt.Fprintf(stderr, "tbcheck: %s: %v\n", in, err)
			return 2
		}
		if cfg.json {
			if err := res.WriteJSON(stdout); err != nil {
				fmt.Fprintln(stderr, "tbcheck:", err)
				return 2
			}
		} else {
			res.WriteText(stdout)
		}
		failed := res.NumError > 0 || (cfg.werror && res.NumWarn > 0)
		if cfg.broken {
			if res.NumError == 0 {
				fmt.Fprintf(stderr, "tbcheck: %s: expected error-level diagnostics, found none\n", in)
				status = max(status, 1)
			} else if !cfg.json {
				fmt.Fprintf(stdout, "%s: flagged as expected (%d errors)\n", in, res.NumError)
			}
			continue
		}
		if failed {
			status = max(status, 1)
		} else if !cfg.json {
			fmt.Fprintf(stdout, "%s: %s verified clean (%d warnings)\n", in, res.Module, res.NumWarn)
		}
	}
	return status
}

// runFleet is -fleet mode: all inputs form one module set, verified
// together by the cross-module pass suite. With -broken, each
// directory argument is instead its own seeded-broken fleet, and
// every one must be flagged.
func runFleet(cfg config, args []string, stdout, stderr io.Writer) int {
	opts := fleet.Options{}
	if cfg.passes != "" {
		opts.Passes = strings.Split(cfg.passes, ",")
		known := map[string]bool{}
		for _, p := range fleet.AllPasses() {
			known[p] = true
		}
		for _, p := range opts.Passes {
			if !known[p] {
				fmt.Fprintf(stderr, "tbcheck: unknown fleet pass %q\n", p)
				return 2
			}
		}
	}

	groups := [][]string{args}
	if cfg.broken {
		groups = nil
		for _, a := range args {
			groups = append(groups, []string{a})
		}
	}

	status := 0
	for _, group := range groups {
		var inputs []fleet.Input
		for _, a := range group {
			ins, err := fleetInputs(a)
			if err != nil {
				fmt.Fprintf(stderr, "tbcheck: %s: %v\n", a, err)
				return 2
			}
			inputs = append(inputs, ins...)
		}
		if len(inputs) == 0 {
			fmt.Fprintf(stderr, "tbcheck: %s: no fleet modules found\n", strings.Join(group, " "))
			return 2
		}
		res := fleet.Verify(inputs, opts)
		label := strings.Join(group, " ")
		if cfg.json {
			if err := res.WriteJSON(stdout); err != nil {
				fmt.Fprintln(stderr, "tbcheck:", err)
				return 2
			}
		} else {
			res.WriteText(stdout)
		}
		if cfg.broken {
			if res.NumError == 0 {
				fmt.Fprintf(stderr, "tbcheck: %s: expected error-level diagnostics, found none\n", label)
				status = max(status, 1)
			} else if !cfg.json {
				fmt.Fprintf(stdout, "%s: flagged as expected (%d errors)\n", label, res.NumError)
			}
			continue
		}
		if res.NumError > 0 || (cfg.werror && res.NumWarn > 0) {
			status = max(status, 1)
		} else if !cfg.json {
			fmt.Fprintf(stdout, "%s: fleet of %d module(s) verified clean (%d warnings)\n",
				label, len(res.Modules), res.NumWarn)
		}
	}
	return status
}

// fleetInputs loads one -fleet argument: a .mc source (compiled and
// instrumented in memory), a .tbm module, or a directory standing for
// the .tbm/.mc files directly inside it (sorted, so runs are
// deterministic).
func fleetInputs(in string) ([]fleet.Input, error) {
	st, err := os.Stat(in)
	if err != nil {
		return nil, err
	}
	if !st.IsDir() {
		one, err := fleetInput(in)
		if err != nil {
			return nil, err
		}
		return []fleet.Input{one}, nil
	}
	entries, err := os.ReadDir(in)
	if err != nil {
		return nil, err
	}
	var out []fleet.Input
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if !strings.HasSuffix(name, ".tbm") && !strings.HasSuffix(name, ".mc") {
			continue
		}
		one, err := fleetInput(filepath.Join(in, name))
		if err != nil {
			return nil, err
		}
		out = append(out, one)
	}
	return out, nil
}

func fleetInput(in string) (fleet.Input, error) {
	if strings.HasSuffix(in, ".mc") || strings.HasSuffix(in, ".c") {
		src, err := os.ReadFile(in)
		if err != nil {
			return fleet.Input{}, err
		}
		name := strings.TrimSuffix(strings.TrimSuffix(filepath.Base(in), ".mc"), ".c")
		mod, err := minic.Compile(name, filepath.Base(in), string(src))
		if err != nil {
			return fleet.Input{}, err
		}
		res, err := core.Instrument(mod, core.Options{})
		if err != nil {
			return fleet.Input{}, err
		}
		return fleet.Input{Module: res.Module, Path: in}, nil
	}
	f, err := os.Open(in)
	if err != nil {
		return fleet.Input{}, err
	}
	m, err := module.Read(f)
	f.Close()
	if err != nil {
		return fleet.Input{}, err
	}
	return fleet.Input{Module: m, Path: in}, nil
}

// checkOne verifies a single input path.
func checkOne(in string, cfg config, opts verify.Options) (*verify.Result, error) {
	switch {
	case strings.HasSuffix(in, ".map.json"):
		return checkMapOnly(in)
	case strings.HasSuffix(in, ".mc") || strings.HasSuffix(in, ".c"):
		return checkSource(in, opts)
	default:
		return checkModule(in, cfg.mapPath, opts)
	}
}

// checkSource compiles and instruments MiniC source in memory, then
// verifies the instrumenter's own output.
func checkSource(in string, opts verify.Options) (*verify.Result, error) {
	src, err := os.ReadFile(in)
	if err != nil {
		return nil, err
	}
	name := strings.TrimSuffix(strings.TrimSuffix(filepath.Base(in), ".mc"), ".c")
	mod, err := minic.Compile(name, filepath.Base(in), string(src))
	if err != nil {
		return nil, err
	}
	res, err := core.Instrument(mod, core.Options{})
	if err != nil {
		return nil, err
	}
	return verify.Verify(res.Module, res.Map, opts), nil
}

// checkModule reads an instrumented .tbm and pairs it with a mapfile:
// the -map flag, or a sibling <base>.map.json (with an optional .tb
// infix, matching tbinstr's naming). A missing sibling degrades to
// module-only verification.
func checkModule(in, mapPath string, opts verify.Options) (*verify.Result, error) {
	f, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	m, err := module.Read(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	if mapPath == "" {
		base := strings.TrimSuffix(in, ".tbm")
		base = strings.TrimSuffix(base, ".tb")
		if _, err := os.Stat(base + ".map.json"); err == nil {
			mapPath = base + ".map.json"
		}
	}
	var mf *module.MapFile
	if mapPath != "" {
		if mf, err = module.ReadMapFile(mapPath); err != nil {
			return nil, err
		}
	}
	return verify.Verify(m, mf, opts), nil
}

// checkMapOnly structurally validates a bare mapfile.
func checkMapOnly(in string) (*verify.Result, error) {
	mf, err := module.ReadMapFile(in)
	if err != nil {
		return nil, err
	}
	res := &verify.Result{Module: mf.ModuleName}
	if err := mf.Validate(); err != nil {
		res.Diags = append(res.Diags, verify.Diagnostic{
			Pass: verify.PassStructure, Severity: verify.SevError, DAG: -1, Instr: -1,
			Msg: fmt.Sprintf("mapfile invalid: %v", err)})
		res.NumError = 1
		return res, nil
	}
	res.Diags = append(res.Diags, verify.Diagnostic{
		Pass: verify.PassStructure, Severity: verify.SevInfo, DAG: -1, Instr: -1,
		Msg: "mapfile structurally valid (no module given: probe and consistency passes skipped)"})
	res.NumInfo = 1
	return res, nil
}
