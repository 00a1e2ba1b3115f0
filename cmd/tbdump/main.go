// tbdump disassembles module files: function boundaries, source line
// annotations, probe idioms, and fixup tables. Useful for inspecting
// what instrumentation did to a binary.
//
//	tbdump build/app.tb.tbm
//	tbdump -map build/app.map.json
//	tbdump -nondet snap-1.snap.json.gz    # a snap's embedded replay recording
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"traceback/internal/module"
	"traceback/internal/snap"
	"traceback/internal/trace"
	"traceback/internal/vm"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges made explicit for in-process
// CLI tests: 0 done, 1 unloadable input or unwritable output, 2 usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tbdump", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mapDump = fs.Bool("map", false, "treat the input as a mapfile and summarize it")
		ndDump  = fs.Bool("nondet", false, "treat the input as a snap and print its embedded nondeterminism recording")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: tbdump [flags] <module.tbm|mapfile.json|snap.json.gz>")
		fs.Usage()
		return 2
	}
	w := bufio.NewWriter(stdout)
	err := dump(w, fs.Arg(0), *mapDump, *ndDump)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(stderr, "tbdump:", err)
		return 1
	}
	return 0
}

func dump(w io.Writer, path string, mapDump, ndDump bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch {
	case ndDump:
		s, err := snap.LoadAuto(f)
		if err != nil {
			return err
		}
		return dumpNondet(w, s)
	case mapDump || strings.HasSuffix(path, ".json"):
		mf, err := module.LoadMapFile(f)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		dumpMap(w, mf)
		return nil
	}
	m, err := module.Read(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	module.Disasm(w, m)
	return nil
}

func dumpMap(w io.Writer, mf *module.MapFile) {
	kind := "native"
	if mf.Managed {
		kind = "managed"
	}
	fmt.Fprintf(w, "mapfile %s (%s): %d DAGs, base %d, checksum %s\n",
		mf.ModuleName, kind, mf.DAGCount, mf.DAGBase, mf.Checksum)
	for _, d := range mf.DAGs {
		fmt.Fprintf(w, "DAG %d (%d blocks):\n", d.ID, len(d.Blocks))
		for bi, b := range d.Blocks {
			bit := "-"
			if b.Bit >= 0 {
				bit = fmt.Sprintf("%d", b.Bit)
			}
			extra := ""
			if b.FuncEntry != "" {
				extra += " entry=" + b.FuncEntry
			}
			if b.FuncExit {
				extra += " exit"
			}
			if b.CallReturn {
				extra += " call-return"
			}
			if b.CallTarget != "" {
				extra += " calls=" + b.CallTarget
			}
			lines := ""
			for _, ls := range b.Lines {
				lines += fmt.Sprintf(" %s:%d", ls.File, ls.Line)
			}
			fmt.Fprintf(w, "  block %d [%d,%d) bit=%s succs=%v%s |%s\n",
				bi, b.Start, b.End, bit, b.Succs, extra, lines)
		}
	}
}

// dumpNondet renders a snap's embedded record-and-replay section:
// the provenance line, then the nondeterminism stream, one
// event per line in recorded order, with signal numbers resolved to
// names. This is the log tbreplay re-executes.
func dumpNondet(w io.Writer, s *snap.Snap) error {
	if s.Nondet == nil {
		return fmt.Errorf("%s/%s: no nondet section (was the run recorded? see tbfault -record)", s.Process, s.Reason)
	}
	n := s.Nondet
	prov := ""
	if n.Wrap {
		prov += " wrap"
	}
	if n.Trial {
		prov += " trial"
	}
	fmt.Fprintf(w, "nondet recording v%d: scenario %s%s · %d event(s)\n", n.V, n.Scenario, prov, len(n.Events))
	for i, r := range n.Events {
		line := r.String()
		if r.Kind == trace.NDSignal {
			line += " (" + vm.SignalName(int(r.Sig)) + ")"
		}
		fmt.Fprintf(w, "  #%-5d %s\n", i, line)
	}
	return nil
}
