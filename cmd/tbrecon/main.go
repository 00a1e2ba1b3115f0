// tbrecon reconstructs snap files into line-by-line source traces
// (paper §4). Given several snaps from related runtimes it stitches
// them into logical threads (paper §5). Snaps are reconstructed on a
// parallel pipeline (-jobs) that shares one checksum-keyed mapfile
// cache across all of them; a directory argument is batch mode and
// expands to every snap file inside it.
//
//	tbrecon -maps build snaps/app-1.snap.json
//	tbrecon -maps build -jobs 8 snaps/
//	tbrecon -maps build -logical snaps/client-1.snap.json snaps/server-1.snap.json
//	tbrecon -maps build -metrics - snaps/   # Prometheus exposition on stderr
//
// The rendered trace is the only thing written to stdout; -stats and
// -metrics report on stderr (or to a file) so piped output stays
// byte-identical whether or not telemetry is requested. Output that
// cannot be written (a full disk, a closed pipe) is an error, exit 1.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"traceback/internal/recon"
	"traceback/internal/snap"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges (args, stdout, stderr, exit
// status) made explicit so tests can drive the CLI in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tbrecon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mapsDir    = fs.String("maps", ".", "directory containing *.map.json mapfiles")
		srcDir     = fs.String("src", "", "directory containing source files (optional, for source text)")
		jobs       = fs.Int("jobs", 0, "reconstruction worker count (0 = GOMAXPROCS)")
		logical    = fs.Bool("logical", false, "stitch multiple snaps into logical threads")
		interleave = fs.Bool("interleave", false, "print the merged multi-thread view")
		flat       = fs.Bool("flat", false, "disable call-hierarchy indentation")
		maxEvents  = fs.Int("max", 0, "cap events shown per thread (0 = all)")
		showVars   = fs.Bool("vars", false, "print global variable values from the snap's memory dump")
		showStats  = fs.Bool("stats", false, "print pipeline counters to stderr when done")
		metricsTo  = fs.String("metrics", "", "write pipeline metrics to this file when done (- = stderr; .json = JSON, else Prometheus text)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 {
		fmt.Fprintln(stderr, "usage: tbrecon [flags] <snap.json | snap-dir> [more...]")
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tbrecon:", err)
		return 1
	}

	// Mapfiles load lazily, keyed by checksum: the batch pipeline
	// parses each one at most once no matter how many snaps share it.
	cache, nmaps, err := recon.NewMapDir(*mapsDir)
	if err != nil {
		return fail(err)
	}
	if nmaps == 0 {
		fmt.Fprintf(stderr, "tbrecon: warning: no mapfiles found in %s\n", *mapsDir)
	}

	// Deduplicated across arguments: `tbrecon snaps/ snaps/a.snap.json`
	// must reconstruct (and render) a.snap.json once, not twice.
	paths, err := snap.ExpandPaths(fs.Args(), func(skipped string) {
		fmt.Fprintf(stderr, "tbrecon: skipping %s: not a snap file\n", skipped)
	})
	if err != nil {
		return fail(err)
	}
	sources := make([]recon.Source, len(paths))
	for i, p := range paths {
		sources[i] = recon.FileSource(p)
	}

	opts := recon.RenderOptions{Flat: *flat, MaxEvents: *maxEvents}
	if *srcDir != "" {
		opts.Source = recon.NewSourceCache(*srcDir).Lines
	}

	pipe := recon.NewPipeline(cache, *jobs)
	results := pipe.Run(sources)

	// All of stdout goes through one buffer; a write that failed
	// surfaces at the final Flush.
	out := bufio.NewWriter(stdout)

	// A failed source must not sink the rest of the batch: report it,
	// reconstruct everything else, exit nonzero at the end.
	failed := 0
	var pts []*recon.ProcessTrace
	for _, res := range results {
		if res.Err != nil {
			fmt.Fprintln(stderr, "tbrecon:", res.Err)
			failed++
			continue
		}
		pts = append(pts, res.Trace)
		if *showVars {
			recon.RenderVariables(out, res.Trace.Snap, cache)
			fmt.Fprintln(out)
		}
	}
	if len(pts) == 0 {
		return 1
	}

	switch {
	case *logical:
		mt := recon.Stitch(pts)
		fmt.Fprintf(out, "stitched %d snap(s) into %d logical thread(s)\n", len(pts), len(mt.Logical))
		var skews []string // sorted: map order must not reach stdout
		for pair, skew := range mt.SkewEstimates {
			skews = append(skews, fmt.Sprintf("clock skew estimate: runtime %x -> %x: %d cycles\n", pair[0], pair[1], skew))
		}
		sort.Strings(skews)
		fmt.Fprint(out, strings.Join(skews, ""))
		fmt.Fprintln(out)
		for _, lt := range mt.Logical {
			recon.RenderLogical(out, lt, opts)
			fmt.Fprintln(out)
		}
	case *interleave:
		for _, pt := range pts {
			recon.RenderInterleaved(out, pt)
		}
	default:
		for _, pt := range pts {
			recon.Render(out, pt, opts)
			fmt.Fprintln(out)
		}
	}
	if err := out.Flush(); err != nil {
		return fail(err)
	}

	if *showStats {
		fmt.Fprintf(stderr, "tbrecon: %s (jobs %d)\n", pipe.Snapshot(), pipe.Jobs())
	}
	if *metricsTo != "" {
		if err := pipe.Registry().WriteFile(*metricsTo, stderr); err != nil {
			return fail(err)
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}
