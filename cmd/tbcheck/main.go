// tbcheck statically verifies the invariants reconstruction assumes of
// its input (the internal/verify pass suite): probe coverage, probe
// safety, module/mapfile consistency and trace-record decodability for
// every module, plus RPC endpoints and the SYNC reply protocol across a
// set of two or more. It accepts MiniC source (.mc, compiled and
// instrumented in memory), instrumented binary modules (.tbm, with the
// mapfile found alongside or given via -map), bare mapfiles
// (.map.json, structural validation only) and directories (the
// .tbm/.mc files directly inside, sorted).
//
//	tbcheck app.mc
//	tbcheck -json build/app.tb.tbm
//	tbcheck -map build/app.map.json build/app.tb.tbm
//	tbcheck -broken internal/verify/testdata/corpus/*.tbm
//
// Each argument is verified on its own, except with -fleet, where all
// arguments form one module set; with -broken each argument is again
// its own group (a module or a seeded-broken set) and every one must
// be flagged.
//
//	tbcheck -fleet examples/crossmachine/client.mc examples/crossmachine/server.mc
//	tbcheck -broken internal/verify/testdata/corpus/fleet/*/
//
// Exit status: 0 clean (or, with -broken, every group flagged), 1 at
// least one error-level diagnostic (with -werror: or warning), 2 bad
// usage, unreadable input or a failed write. With -json, one JSON
// result object is printed per group, one per line.
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
	fs.BoolVar(&cfg.json, "json", false, "emit one JSON result per verified group instead of text diagnostics")
	fs.BoolVar(&cfg.werror, "werror", false, "treat warnings as errors for the exit status")
	fs.BoolVar(&cfg.broken, "broken", false, "negative mode: every argument must produce at least one error")
	fs.BoolVar(&cfg.fleet, "fleet", false, "verify all arguments together as one module set")
	fs.StringVar(&cfg.passes, "passes", "", "comma-separated pass subset (default all): "+
		strings.Join(verify.AllPasses(), ","))
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
	if cfg.fleet && cfg.mapPath != "" {
		fmt.Fprintln(stderr, "tbcheck: -map has no meaning in -fleet mode")
		return 2
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

	groups := [][]string{fs.Args()}
	if !cfg.fleet || cfg.broken {
		groups = nil
		for _, a := range fs.Args() {
			groups = append(groups, []string{a})
		}
	}
	status := 0
	for _, group := range groups {
		label := strings.Join(group, " ")
		var inputs []verify.Input
		for _, a := range group {
			ins, err := load(a, cfg.mapPath)
			if err != nil {
				fmt.Fprintf(stderr, "tbcheck: %s: %v\n", a, err)
				return 2
			}
			inputs = append(inputs, ins...)
		}
		if len(inputs) == 0 {
			fmt.Fprintf(stderr, "tbcheck: %s: no modules found\n", label)
			return 2
		}
		res := verify.Verify(inputs, opts)
		var err error
		if cfg.json {
			err = res.WriteJSON(stdout)
		} else {
			err = res.WriteText(stdout)
		}
		switch {
		case cfg.broken && res.NumError == 0:
			fmt.Fprintf(stderr, "tbcheck: %s: expected error-level diagnostics, found none\n", label)
			status = max(status, 1)
		case cfg.broken && err == nil && !cfg.json:
			_, err = fmt.Fprintf(stdout, "%s: flagged as expected (%d errors)\n", label, res.NumError)
		case !cfg.broken && (res.NumError > 0 || (cfg.werror && res.NumWarn > 0)):
			status = max(status, 1)
		case !cfg.broken && err == nil && !cfg.json:
			_, err = fmt.Fprintf(stdout, "%s: %s verified clean (%d warnings)\n", label, describe(inputs), res.NumWarn)
		}
		if err != nil {
			fmt.Fprintln(stderr, "tbcheck:", err)
			return 2
		}
	}
	return status
}

// describe names what a clean group verified: the module itself, or
// the size of the set.
func describe(inputs []verify.Input) string {
	switch {
	case len(inputs) > 1:
		return fmt.Sprintf("fleet of %d module(s)", len(inputs))
	case inputs[0].Module != nil:
		return inputs[0].Module.Name
	}
	return inputs[0].Map.ModuleName
}

// load reads one argument into verifier inputs: MiniC source (compiled
// and instrumented in memory, with its mapfile), a bare mapfile, a
// directory standing for the .tbm/.mc files directly inside it
// (sorted, so runs are deterministic), or an instrumented .tbm paired
// with a mapfile — mapPath, or a sibling <base>.map.json (with an
// optional .tb infix, matching tbinstr's naming). A .tbm without a
// mapfile is verified module-only.
func load(in, mapPath string) ([]verify.Input, error) {
	switch {
	case strings.HasSuffix(in, ".map.json"):
		mf, err := module.ReadMapFile(in)
		if err != nil {
			return nil, err
		}
		return []verify.Input{{Map: mf, Path: in}}, nil
	case strings.HasSuffix(in, ".mc") || strings.HasSuffix(in, ".c"):
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
		return []verify.Input{{Module: res.Module, Map: res.Map, Path: in}}, nil
	}
	if st, err := os.Stat(in); err != nil {
		return nil, err
	} else if st.IsDir() {
		entries, err := os.ReadDir(in)
		if err != nil {
			return nil, err
		}
		var out []verify.Input
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || (!strings.HasSuffix(name, ".tbm") && !strings.HasSuffix(name, ".mc")) {
				continue
			}
			one, err := load(filepath.Join(in, name), "")
			if err != nil {
				return nil, err
			}
			out = append(out, one...)
		}
		return out, nil
	}
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
		base := strings.TrimSuffix(strings.TrimSuffix(in, ".tbm"), ".tb")
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
	return []verify.Input{{Module: m, Map: mf, Path: in}}, nil
}
