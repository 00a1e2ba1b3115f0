// tbreplay deterministically re-executes the run that produced a
// snap. The snap's embedded nondeterminism recording (written by
// tbfault -record or any run with a vm.Recorder installed) is the
// sole nondeterminism source: the world is rebuilt from the
// recording's provenance, every recorded decision — scheduling
// checkpoint, signal, kill, module unload, RPC transport verdict,
// managed interrupt — is re-fired at its recorded quantum, and every
// re-observed decision is checked against the log. The replayed
// execution halts where the original did, and the faulting process's
// reconstructed fault-directed view is printed.
//
//	tbreplay snap-1.snap.json.gz             # replay + render the fault view
//	tbreplay -json snap-1.snap.json.gz       # machine-readable verdict
//	tbreplay -perturb 7 snap-1.snap.json.gz  # replay under one seeded variation
//
// Exit status: 0 when the replay reproduces every given snap byte for
// byte (recording sections excluded); 1 on divergence — the replay
// stopped conforming to the log, or the reconstruction differs — with
// a machine-readable JSON divergence report on stderr; 2 on usage
// errors, snaps that carry no recording, or output that cannot be
// written (1 stays reserved for divergence).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"traceback/internal/recon"
	"traceback/internal/replay"
	"traceback/internal/snap"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// output is the -json verdict.
type output struct {
	Scenario   string             `json:"scenario"`
	Trial      bool               `json:"trial,omitempty"`
	Wrap       bool               `json:"wrap,omitempty"`
	Events     int                `json:"events"`
	Snaps      []string           `json:"snaps"`
	Identical  bool               `json:"identical"`
	Divergence *replay.Divergence `json:"divergence,omitempty"`
	Mutation   string             `json:"mutation,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tbreplay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut  = fs.Bool("json", false, "print the machine-readable verdict instead of the fault view")
		perturb  = fs.Int64("perturb", 0, "replay under one seeded variation of the recording instead of strictly (nonzero seed)")
		noRender = fs.Bool("q", false, "suppress the fault-directed view")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 {
		fmt.Fprintln(stderr, "usage: tbreplay [flags] <snap.json.gz> [more snaps of the same run...]")
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tbreplay:", err)
		return 2
	}

	snaps := make([]*snap.Snap, fs.NArg())
	for i, path := range fs.Args() {
		s, err := snap.LoadFile(path)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", filepath.Base(path), err))
		}
		snaps[i] = s
	}
	l, err := replay.FromSnap(snaps[0])
	if err != nil {
		return fail(fmt.Errorf("%s: %w", fs.Arg(0), err))
	}

	out := output{
		Scenario: l.Scenario, Trial: l.Trial, Wrap: l.Wrap,
		Events: len(l.Events),
	}

	var res *replay.Result
	if *perturb != 0 {
		pr, err := replay.Perturb(l, *perturb)
		if err != nil {
			return fail(err)
		}
		res = pr.Result
		out.Mutation = pr.Mutation
		out.Divergence = res.Divergence
	} else {
		res, err = replay.Run(l)
		if err != nil {
			return fail(err)
		}
		out.Divergence = res.Divergence
		if out.Divergence == nil {
			out.Divergence = matchSnaps(snaps, res.Snaps)
			out.Identical = out.Divergence == nil
		}
	}
	for _, s := range res.Snaps {
		out.Snaps = append(out.Snaps, s.Process+"/"+s.Reason)
	}

	w := bufio.NewWriter(stdout)
	if *jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&out); err != nil {
			return fail(err)
		}
	} else {
		printText(w, &out)
		if !*noRender && len(res.Snaps) > 0 {
			if err := render(w, res, snaps[0]); err != nil {
				fmt.Fprintln(stderr, "tbreplay: fault view:", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}

	if out.Divergence != nil {
		// Divergence is a first-class machine-readable error: the JSON
		// report goes to stderr regardless of output mode. Under
		// perturbation the run is non-strict — departing the recording
		// is the expected outcome, so it's reported without failing.
		b, _ := json.Marshal(out.Divergence)
		if *perturb != 0 {
			fmt.Fprintf(stderr, "tbreplay: perturbed run departed the recording: %s\n", b)
			return 0
		}
		fmt.Fprintf(stderr, "tbreplay: divergence: %s\n", b)
		return 1
	}
	return 0
}

// matchSnaps requires every input snap to be reproduced byte for byte
// (recording sections excluded) somewhere in the replayed harvest.
// Order-independent: the caller may hand us any subset of the run's
// snaps, in any order.
func matchSnaps(inputs, replayed []*snap.Snap) *replay.Divergence {
	var got [][]byte
	for _, s := range replayed {
		b, err := replay.StrippedBytes(s)
		if err != nil {
			return &replay.Divergence{Kind: "snap-mismatch", Got: err.Error()}
		}
		got = append(got, b)
	}
	for i, s := range inputs {
		want, err := replay.StrippedBytes(s)
		if err != nil {
			return &replay.Divergence{Kind: "snap-mismatch", Got: err.Error()}
		}
		found := false
		for _, g := range got {
			if bytes.Equal(want, g) {
				found = true
				break
			}
		}
		if !found {
			return &replay.Divergence{
				Seq:  i,
				Kind: "snap-mismatch",
				Want: fmt.Sprintf("%s/%s %d bytes", s.Process, s.Reason, len(want)),
				Got:  fmt.Sprintf("no byte-identical snap in the replayed harvest (%d snaps)", len(got)),
			}
		}
	}
	return nil
}

func printText(w io.Writer, out *output) {
	kind := "scenario"
	if out.Trial {
		kind = "trial"
	}
	fmt.Fprintf(w, "replay: %s %s · %d recorded event(s)\n", kind, out.Scenario, out.Events)
	if out.Mutation != "" {
		fmt.Fprintf(w, "replay: perturbation: %s\n", out.Mutation)
	}
	for _, s := range out.Snaps {
		fmt.Fprintf(w, "replay: harvested %s\n", s)
	}
	if out.Identical {
		fmt.Fprintln(w, "replay: byte-identical reconstruction")
	}
}

// render prints the fault-directed view of the replayed snap matching
// the first input (falling back to the first harvested snap under
// perturbation, where the execution legitimately differs). The replay
// rebuilt every module it loaded, so res.Maps covers the snap.
func render(stdout io.Writer, res *replay.Result, input *snap.Snap) error {
	target := res.Snaps[0]
	if want, err := replay.StrippedBytes(input); err == nil {
		for _, s := range res.Snaps {
			if got, err := replay.StrippedBytes(s); err == nil && bytes.Equal(want, got) {
				target = s
				break
			}
		}
	}
	pt, err := recon.Reconstruct(target, recon.NewMapSet(res.Maps...))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "--- fault-directed view: %s/%s ---\n", target.Process, target.Reason)
	recon.Render(stdout, pt, recon.RenderOptions{})
	return nil
}
