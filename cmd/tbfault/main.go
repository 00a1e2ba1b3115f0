// tbfault is the fault-injection campaign orchestrator: it sweeps
// seeded faults (kill -9, signal storms, RPC drop/delay/duplication,
// module unloads, tiny-buffer wrap stress, managed interrupts) across
// the example scenarios, snaps every run, and asserts the
// reconstruction invariants. The whole campaign — schedule,
// parameters, report — is a pure function of -seed.
//
//	tbfault run -seed 1 -kinds kill,rpc          # one campaign slice
//	tbfault run -seed 1 -kinds all -report json  # full campaign, JSON report
//	tbfault replay -dir snaps/regressions        # verify the committed corpus
//
// `run` records every trial's nondeterminism and replay-verifies it
// byte for byte (disable with -record=false); it exits 1 when any
// invariant is violated, writing each violating trial's snaps,
// mapfiles, and repro lines (campaign slice + standalone tbreplay)
// under -regress so the failure can be committed as a regression
// case. `replay` exits 1 when any committed case no longer matches
// its manifest — including when a seeded-known-bad case's corruption
// goes undetected. Both exit 1 when their output cannot be written.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"traceback/internal/fault"
	"traceback/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		fmt.Fprintln(stderr, "usage: tbfault run|replay [flags]   (tbfault <cmd> -h for flags)")
		return 2
	}
	switch args[0] {
	case "run":
		return runCampaign(args[1:], stdout, stderr)
	case "replay":
		return runReplay(args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "tbfault: unknown command %q (want run or replay)\n", args[0])
		return 2
	}
}

func runCampaign(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tbfault run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "campaign seed; the entire schedule and report derive from it")
	kinds := fs.String("kinds", "all", "comma-separated fault kinds ("+strings.Join(fault.AllKinds, ",")+"; \"rpc\" expands to the transport kinds, \"all\" to everything)")
	scenarios := fs.String("scenarios", "", "restrict trials to these scenarios (comma-separated; empty: all that apply)")
	report := fs.String("report", "text", "report format: text or json")
	out := fs.String("out", "", "write the report to this file instead of stdout")
	regress := fs.String("regress", "", "write each violating trial's snaps+maps+repro under this directory")
	record := fs.Bool("record", true, "record each trial's nondeterminism and replay-verify it byte for byte; harvested snaps carry the recording for tbreplay")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tbfault:", err)
		return 1
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "tbfault: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if *report != "text" && *report != "json" {
		fmt.Fprintf(stderr, "tbfault: -report %q (want text or json)\n", *report)
		return 2
	}

	kindList, err := fault.ExpandKinds(splitList(*kinds))
	if err != nil {
		fmt.Fprintln(stderr, "tbfault:", err)
		return 2
	}
	c, err := fault.New(fault.Config{
		Seed:      *seed,
		Kinds:     kindList,
		Scenarios: splitList(*scenarios),
		Record:    *record,
		Telemetry: telemetry.New(),
	})
	if err != nil {
		return fail(err)
	}
	rep, err := c.Run()
	if err != nil {
		return fail(err)
	}

	var body []byte
	if *report == "json" {
		if body, err = rep.Marshal(); err != nil {
			return fail(err)
		}
	} else {
		body = textReport(rep)
	}
	if *out == "" {
		_, err = stdout.Write(body)
	} else {
		err = os.WriteFile(*out, body, 0o666)
	}
	if err != nil {
		return fail(err)
	}

	if rep.Violations > 0 {
		if *regress != "" {
			paths, err := fault.WriteArtifacts(*regress, c.Artifacts())
			if err != nil {
				return fail(err)
			}
			for _, p := range paths {
				fmt.Fprintln(stderr, "tbfault: regression evidence:", p)
			}
		}
		fmt.Fprintf(stderr, "tbfault: %d invariant violation(s); repro: %s\n", rep.Violations, rep.Repro)
		return 1
	}
	return 0
}

func runReplay(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tbfault replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", filepath.Join("snaps", "regressions"), "regression corpus directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "tbfault: unexpected arguments %v\n", fs.Args())
		return 2
	}
	corpus, err := fault.LoadCorpus(*dir)
	if err != nil {
		fmt.Fprintln(stderr, "tbfault:", err)
		return 1
	}
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	bad := 0
	for i := range corpus.Cases {
		cc := &corpus.Cases[i]
		if err := cc.Verify(*dir); err != nil {
			fmt.Fprintln(stderr, "tbfault: FAIL", err)
			bad++
			continue
		}
		what := fmt.Sprintf("fault lines %v", cc.FaultLines)
		if cc.Expect == fault.ExpectViolation {
			what = "corruption detected"
		}
		fmt.Fprintf(w, "ok   %-20s %s\n", cc.Name, what)
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "tbfault: replay: %d of %d case(s) failed\n", bad, len(corpus.Cases))
		return 1
	}
	fmt.Fprintf(w, "replay: %d case(s) match their manifest\n", len(corpus.Cases))
	if err := w.Flush(); err != nil {
		fmt.Fprintln(stderr, "tbfault:", err)
		return 1
	}
	return 0
}

func textReport(rep *fault.Report) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "campaign seed %d · %d trial(s) · %d violation(s)\n", rep.Seed, len(rep.Trials), rep.Violations)
	for _, tr := range rep.Trials {
		status := "ok"
		if len(tr.Violations) > 0 {
			status = fmt.Sprintf("FAIL(%d)", len(tr.Violations))
		}
		fmt.Fprintf(&b, "  %-8s %-10s %-12s snaps %-3d events %-6d %s\n",
			status, tr.Kind, tr.Scenario, tr.Snaps, tr.Events, strings.Join(tr.FaultLines, " "))
		for _, v := range tr.Violations {
			fmt.Fprintf(&b, "           %s: %s\n", v.Invariant, v.Detail)
		}
	}
	fmt.Fprintln(&b, "repro:", rep.Repro)
	return b.Bytes()
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
