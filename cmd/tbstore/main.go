// tbstore is the fleet-side snap warehouse CLI (the support
// organization's triage tool): it ingests snap files into a
// content-addressed, crash-signature-bucketed archive and answers
// "which fault is hurting the fleet most?" without re-reconstructing
// anything.
//
//	tbstore -store wh ingest -maps build -jobs 8 snaps/
//	tbstore -store wh ls
//	tbstore -store wh top -n 5 -since 500000
//	tbstore -store wh show -maps build 2e2b7aab
//	tbstore -store wh regressions
//	tbstore -store wh rates 2e2b7aab
//	tbstore -store wh clusters -maps build
//	tbstore watch -url http://collector:7321
//	tbstore -store wh gc -max-blobs 1000 -max-bytes 100000000 -keep-reps
//
// `show` reconstructs a bucket's representative snap on demand and
// writes the trace to stdout byte-identically to `tbrecon` on that
// snap; bucket metadata goes to stderr so the trace stays pipeable.
//
// The fleet-health views (`regressions`, `rates`, `clusters`, `top
// -since`) are deterministic functions of the warehouse index: the
// same store answers byte-identically however it was ingested, and
// identically to a tbcollectd daemon serving the same warehouse over
// /v1/regressions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"traceback/internal/archive"
	"traceback/internal/collect"
	"traceback/internal/recon"
	"traceback/internal/shard"
	"traceback/internal/snap"
	"traceback/internal/telemetry"
	"traceback/internal/triage"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges made explicit for in-process
// CLI tests.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tbstore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	store := fs.String("store", "store", "warehouse directory")
	metricsTo := fs.String("metrics", "", "write archive metrics to this file when done (- = stderr; .json = JSON, else Prometheus text)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 {
		fmt.Fprintln(stderr, "usage: tbstore [-store dir] <ingest|ls|top|show|regressions|rates|clusters|watch|gc> [flags] [args]")
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tbstore:", err)
		return 1
	}

	cmd, rest := fs.Arg(0), fs.Args()[1:]
	c := &cli{store: *store, stdout: stdout, stderr: stderr}
	var err error
	switch cmd {
	case "ingest":
		err = c.ingest(rest)
	case "ls":
		err = c.ls(rest)
	case "top":
		err = c.top(rest)
	case "show":
		err = c.show(rest)
	case "regressions":
		err = c.regressions(rest)
	case "rates":
		err = c.rates(rest)
	case "clusters":
		err = c.clusters(rest)
	case "watch":
		err = c.watch(rest)
	case "gc":
		err = c.gc(rest)
	default:
		return fail(fmt.Errorf("unknown command %q (want ingest|ls|top|show|regressions|rates|clusters|watch|gc)", cmd))
	}
	if err != nil {
		return fail(err)
	}
	if *metricsTo != "" && c.reg != nil {
		if werr := c.reg.WriteFile(*metricsTo, stderr); werr != nil {
			return fail(werr)
		}
	}
	if c.failed > 0 {
		return 1
	}
	return 0
}

type cli struct {
	store          string
	stdout, stderr io.Writer
	reg            *telemetry.Registry
	failed         int
}

// openArch opens the warehouse with a fresh registry bound, so every
// subcommand — not just ingest — exposes arch_* self-telemetry via
// -metrics. Metrics go to the -metrics destination only; stdout
// output is byte-identical with and without the flag.
func (c *cli) openArch() (*archive.Archive, error) {
	reg := telemetry.New()
	arch, err := archive.OpenWith(c.store, archive.Options{Telemetry: reg})
	if err != nil {
		return nil, err
	}
	c.reg = reg
	return arch, nil
}

// closeArch folds arch.Close's error — a failed index flush, e.g.
// disk full writing index.json — into the command's result instead of
// discarding it, so the process exits nonzero with a diagnostic.
func closeArch(arch *archive.Archive, err *error) {
	if cerr := arch.Close(); cerr != nil && *err == nil {
		*err = cerr
	}
}

// ingest signs every input snap and folds it into the warehouse with
// -jobs concurrent workers, each running the daemon's signing path:
// load the snap, archive.SignSnap it against one shared mapfile cache,
// ingest it. A snap that cannot be reconstructed (mapfiles missing)
// still archives under the weak metadata signature; one that cannot
// even be loaded is reported and skipped.
func (c *cli) ingest(args []string) (err error) {
	fs := flag.NewFlagSet("tbstore ingest", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	mapsDir := fs.String("maps", ".", "directory containing *.map.json mapfiles")
	jobs := fs.Int("jobs", 0, "signing + ingest worker count (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("ingest: need snap files or directories")
	}
	paths, err := snap.ExpandPaths(fs.Args(), func(skipped string) {
		fmt.Fprintf(c.stderr, "tbstore: skipping %s: not a snap file\n", skipped)
	})
	if err != nil {
		return err
	}
	sort.Strings(paths)

	cache, _, err := recon.NewMapDir(*mapsDir)
	if err != nil {
		return err
	}
	arch, err := c.openArch()
	if err != nil {
		return err
	}
	defer closeArch(arch, &err)

	// The archive single-flights identical snaps, so the worker count
	// only affects wall clock, never the resulting index.
	type outcome struct {
		res archive.IngestResult
		err error
	}
	outs := make([]outcome, len(paths))
	if *jobs <= 0 {
		*jobs = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, *jobs)
	for i, p := range paths {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			s, err := snap.LoadFile(p)
			if err != nil {
				outs[i].err = err
				return
			}
			outs[i].res, outs[i].err = arch.Ingest(s, archive.SignSnap(s, cache))
		}()
	}
	wg.Wait()

	var stored, dups, newBuckets int
	for i, o := range outs {
		if o.err != nil {
			fmt.Fprintf(c.stderr, "tbstore: %s: %v\n", paths[i], o.err)
			c.failed++
			continue
		}
		r := o.res
		state := "stored"
		if r.Dup {
			state = "dup"
			dups++
		} else {
			stored++
		}
		if r.NewBucket {
			newBuckets++
		}
		weak := ""
		if r.Sig.Weak {
			weak = " (weak)"
		}
		fmt.Fprintf(c.stdout, "%s: %s %s -> bucket %s%s\n",
			paths[i], state, r.Sum[:12], r.Sig.ID, weak)
	}
	fmt.Fprintf(c.stdout, "ingested %d snap(s): %d stored, %d deduplicated, %d new bucket(s); store holds %d blob(s) in %d bucket(s), %d bytes\n",
		stored+dups, stored, dups, newBuckets, arch.NumBlobs(), len(arch.Buckets()), arch.StoredBytes())
	return nil
}

func (c *cli) ls(args []string) (err error) {
	fs := flag.NewFlagSet("tbstore ls", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	verbose := fs.Bool("v", false, "also list each bucket's blobs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	arch, err := c.openArch()
	if err != nil {
		return err
	}
	defer closeArch(arch, &err)
	buckets := arch.Buckets()
	for _, b := range buckets {
		fmt.Fprintf(c.stdout, "%s  x%-4d %s  hosts=%s\n",
			b.Sig, b.Count, b.Title, strings.Join(b.Hosts, ","))
		if *verbose {
			for _, ref := range b.Snaps {
				fmt.Fprintf(c.stdout, "    %s  %6d bytes  %s/%s  t=%d  %s\n",
					ref.Sum[:12], ref.Bytes, ref.Host, ref.Process, ref.Time, ref.Reason)
			}
		}
	}
	fmt.Fprintf(c.stdout, "%d bucket(s), %d blob(s), %d bytes\n",
		len(buckets), arch.NumBlobs(), arch.StoredBytes())
	return nil
}

// top is the triage view: buckets by occurrence count (ties broken
// by signature, so the listing is byte-deterministic).
func (c *cli) top(args []string) (err error) {
	fs := flag.NewFlagSet("tbstore top", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	n := fs.Int("n", 10, "buckets to show")
	since := fs.Uint64("since", 0, "only buckets last seen within the newest N snap-time cycles (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	arch, err := c.openArch()
	if err != nil {
		return err
	}
	defer closeArch(arch, &err)
	buckets := arch.Buckets()
	if *since > 0 {
		cut := uint64(0)
		if newest := shard.NewestTime(buckets); newest > *since {
			cut = newest - *since
		}
		kept := buckets[:0]
		for _, b := range buckets {
			if b.LastSeen >= cut {
				kept = append(kept, b)
			}
		}
		buckets = kept
	}
	if *n > 0 && len(buckets) > *n {
		buckets = buckets[:*n]
	}
	for i, b := range buckets {
		fmt.Fprintf(c.stdout, "%2d. x%-4d %s  %s  (hosts %s, seen %d..%d)\n",
			i+1, b.Count, b.Sig, b.Title, strings.Join(b.Hosts, ","), b.FirstSeen, b.LastSeen)
	}
	return nil
}

// show reconstructs a bucket's representative snap on demand. The
// trace on stdout is byte-identical to `tbrecon` over the same snap;
// everything else goes to stderr.
func (c *cli) show(args []string) (err error) {
	fs := flag.NewFlagSet("tbstore show", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	mapsDir := fs.String("maps", ".", "directory containing *.map.json mapfiles")
	srcDir := fs.String("src", "", "directory containing source files (optional)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("show: need one bucket signature (prefix ok)")
	}
	arch, err := c.openArch()
	if err != nil {
		return err
	}
	defer closeArch(arch, &err)
	b, err := arch.Bucket(fs.Arg(0))
	if err != nil {
		return err
	}
	if b.Rep == "" {
		return fmt.Errorf("show: bucket %s has no resident snaps (evicted by gc)", b.Sig)
	}
	fmt.Fprintf(c.stderr, "bucket %s: %s\n", b.Sig, b.Title)
	fmt.Fprintf(c.stderr, "count %d, hosts %s, seen %d..%d, representative %s\n",
		b.Count, strings.Join(b.Hosts, ","), b.FirstSeen, b.LastSeen, b.Rep[:12])

	s, err := arch.LoadSnap(b.Rep)
	if err != nil {
		return err
	}
	maps, _, err := recon.NewMapDir(*mapsDir)
	if err != nil {
		return err
	}
	pt, err := recon.Reconstruct(s, maps)
	if err != nil {
		return err
	}
	opts := recon.RenderOptions{}
	if *srcDir != "" {
		opts.Source = recon.NewSourceCache(*srcDir).Lines
	}
	recon.Render(c.stdout, pt, opts)
	fmt.Fprintln(c.stdout)
	return nil
}

// regressions classifies every bucket against the warehouse's newest
// snap time. Default output is the flagged set (new + spiking); -all
// lists every signature with its verdict. Deterministic given the
// index, and identical to a daemon's /v1/regressions over the same
// warehouse.
func (c *cli) regressions(args []string) (err error) {
	fs := flag.NewFlagSet("tbstore regressions", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	all := fs.Bool("all", false, "list every signature, not only new/spiking")
	if err := fs.Parse(args); err != nil {
		return err
	}
	arch, err := c.openArch()
	if err != nil {
		return err
	}
	defer closeArch(arch, &err)
	rep := triage.New(arch, nil, triage.Config{}, c.reg).Regressions()
	rows := rep.Flagged()
	if *all {
		rows = rep.Assessments
	}
	for _, a := range rows {
		c.printAssessment("", a)
	}
	fmt.Fprintf(c.stdout, "%d signature(s), %d flagged; now=%d window=%d\n",
		len(rep.Assessments), len(rep.Flagged()), rep.Now, rep.Window)
	return nil
}

// printAssessment prints one signature's verdict: the row format of
// `regressions` and, indented under its tick line, of `watch`.
func (c *cli) printAssessment(indent string, a triage.Assessment) {
	fmt.Fprintf(c.stdout, "%s%-8s x%-4d %s  %s  (recent %.2f/win, base %.2f/win)\n",
		indent, a.Class, a.Recent, a.Sig, a.Title, a.RecentRate, a.BaseRate)
}

// rates prints one signature's crash-rate histogram and verdict.
func (c *cli) rates(args []string) (err error) {
	fs := flag.NewFlagSet("tbstore rates", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("rates: need one bucket signature (prefix ok)")
	}
	arch, err := c.openArch()
	if err != nil {
		return err
	}
	defer closeArch(arch, &err)
	rr, err := triage.New(arch, nil, triage.Config{}, c.reg).Rates(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Fprintln(c.stdout, rr)
	for _, w := range rr.Windows {
		fmt.Fprintf(c.stdout, "  window %d..%d  x%d\n", w.Start, w.Start+rr.Window-1, w.Count)
	}
	return nil
}

// clusters groups near-duplicate signatures by fault-view similarity;
// -maps supplies the mapfiles exemplar reconstruction needs.
func (c *cli) clusters(args []string) (err error) {
	fs := flag.NewFlagSet("tbstore clusters", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	mapsDir := fs.String("maps", ".", "directory containing *.map.json mapfiles")
	if err := fs.Parse(args); err != nil {
		return err
	}
	arch, err := c.openArch()
	if err != nil {
		return err
	}
	defer closeArch(arch, &err)
	maps, _, err := recon.NewMapDir(*mapsDir)
	if err != nil {
		return err
	}
	rep, err := triage.New(arch, maps, triage.Config{}, c.reg).Clusters()
	if err != nil {
		return err
	}
	for i, cl := range rep.Clusters {
		mark := ""
		if cl.Unclustered {
			mark = "  (unclustered)"
		}
		fmt.Fprintf(c.stdout, "%2d. x%-4d %s  %s%s\n", i+1, cl.Count, cl.Lead, cl.Title, mark)
		if len(cl.Members) > 1 {
			for _, m := range cl.Members {
				fmt.Fprintf(c.stdout, "      x%-4d %s  d=%.3f  %s\n", m.Count, m.Sig, m.Distance, m.Title)
			}
		}
	}
	fmt.Fprintf(c.stdout, "%d cluster(s) at threshold %.2f\n", len(rep.Clusters), rep.Threshold)
	return nil
}

// watch polls a tbcollectd daemon's health and regression views,
// printing one summary per tick — the terminal dashboard for a fleet
// collector. An unreachable daemon (killed, restarting, network blip)
// does not end the watch: ticks keep coming with jittered exponential
// backoff between them, and the first successful poll afterward prints
// a one-line reconnected notice so the outage is visible in the log.
func (c *cli) watch(args []string) error {
	fs := flag.NewFlagSet("tbstore watch", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	url := fs.String("url", "http://localhost:7321", "tbcollectd base URL")
	interval := fs.Duration("interval", 5*time.Second, "poll interval")
	count := fs.Int("count", 0, "ticks before exiting (0 = forever)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	client := &http.Client{Timeout: 30 * time.Second}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	base := strings.TrimRight(*url, "/")
	down := 0 // consecutive unreachable ticks
	for tick := 1; *count == 0 || tick <= *count; tick++ {
		if tick > 1 {
			d := *interval
			if down > 0 {
				// The daemon is away: back off as the agent does, capped
				// at 8x the interval, so a fleet of watchers does not
				// hammer a restarting daemon in lockstep.
				d = collect.Backoff(*interval, 8*(*interval), down, rng)
			}
			time.Sleep(d)
		}
		if c.watchTick(client, base, tick) {
			if down > 0 {
				fmt.Fprintf(c.stdout, "tick %d: reconnected to %s after %d failed attempt(s)\n", tick, base, down)
			}
			down = 0
		} else {
			down++
		}
	}
	return nil
}

// watchTick polls once; false means the daemon was unreachable (the
// caller's cue to back off and announce the reconnect later).
func (c *cli) watchTick(client *http.Client, base string, tick int) bool {
	var hr collect.HealthResponse
	if err := getJSON(client, base+collect.PathHealth, &hr); err != nil {
		fmt.Fprintf(c.stdout, "tick %d: %s unreachable: %v\n", tick, base, err)
		return false
	}
	var rep triage.Report
	if err := getJSON(client, base+collect.PathRegressions, &rep); err != nil {
		fmt.Fprintf(c.stdout, "tick %d: state=%s (regressions: %v)\n", tick, hr.State, err)
		return true
	}
	flagged := rep.Flagged()
	fmt.Fprintf(c.stdout, "tick %d: state=%s up=%ds buckets=%d blobs=%d bytes=%d inflight=%d flagged=%d\n",
		tick, hr.State, hr.UptimeSec, hr.Buckets, hr.Blobs, hr.StoredBytes, hr.Inflight, len(flagged))
	for _, a := range flagged {
		c.printAssessment("  ", a)
	}
	return true
}

// maxAnswerBytes caps what watch reads of one polled answer; a
// regression report runs to a few hundred bytes per signature.
const maxAnswerBytes = 16 << 20

// getJSON fetches and decodes one JSON endpoint; non-2xx statuses
// with a JSON body (healthz mid-drain answers 503) still decode. An
// answer that is not the expected JSON — a gate's text/plain "502
// shard … unreachable", a proxy's error page — is reported as its
// status and first line.
func getJSON(client *http.Client, url string, into any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxAnswerBytes))
	if err != nil {
		return err
	}
	if json.Unmarshal(body, into) != nil {
		line, _, _ := strings.Cut(strings.TrimSpace(string(body)), "\n")
		if len(line) > 200 {
			line = line[:200] + "…"
		}
		return fmt.Errorf("%s: %s", resp.Status, line)
	}
	return nil
}

func (c *cli) gc(args []string) (err error) {
	fs := flag.NewFlagSet("tbstore gc", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	maxAge := fs.Uint64("max-age", 0, "evict blobs older than newest-N (snap-time cycles; 0 = no limit)")
	maxBlobs := fs.Int("max-blobs", 0, "keep at most N blobs (0 = no limit)")
	maxBytes := fs.Int64("max-bytes", 0, "keep at most N compressed bytes (0 = no limit)")
	keepReps := fs.Bool("keep-reps", false, "never count/byte-evict a bucket's representative snap")
	if err := fs.Parse(args); err != nil {
		return err
	}
	arch, err := c.openArch()
	if err != nil {
		return err
	}
	defer closeArch(arch, &err)
	res, err := arch.GC(archive.GCPolicy{
		MaxAge: *maxAge, MaxBlobs: *maxBlobs, MaxBytes: *maxBytes, KeepReps: *keepReps,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(c.stdout, "gc: removed %d blob(s), %d bytes; store holds %d blob(s), %d bytes\n",
		res.Removed, res.Bytes, arch.NumBlobs(), arch.StoredBytes())
	return nil
}
