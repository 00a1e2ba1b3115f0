// tbagent is the machine-side uploader of the fleet collection
// plane: it watches a spool directory for snaps (written by
// collect.Spool, or by anything else that drops *.snap.json.gz files
// there, such as tbrun -snapdir) and uploads each to a tbcollectd
// daemon with a dedup precheck, jittered exponential backoff, and a
// durable commit rule — a snap leaves the spool only after a 2xx
// response whose hash echo matches, so a killed daemon, a truncated
// response, or a machine restart never loses evidence.
//
//	tbagent -spool /var/spool/traceback -server http://collector:7321
//	tbagent -spool spool -server http://127.0.0.1:7321 -once
//
// Against a sharded fleet, -server takes the comma-separated shard
// list in ring order; the agent places each snap by its content hash.
// It never probes /healthz: an upload that cannot connect, or that a
// draining daemon answers 503, marks that shard down for the rest of
// the pass and the snap fails over to the next one (counted in
// coll_agent_failover_total). One URL is a ring of one; with no shard
// left the snap stays spooled and retries:
//
//	tbagent -spool spool -server http://s0:7321,http://s1:7321,http://s2:7321
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"traceback/internal/collect"
	"traceback/internal/telemetry"
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sigs))
}

// run is main with the process edges made explicit for in-process
// tests; sigs stops the watch loop.
func run(args []string, stdout, stderr io.Writer, sigs <-chan os.Signal) int {
	fs := flag.NewFlagSet("tbagent", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spool := fs.String("spool", "spool", "spool directory to watch")
	server := fs.String("server", "http://127.0.0.1:7321", "collection daemon base URL(s), comma-separated in shard-ring order")
	once := fs.Bool("once", false, "drain the spool and exit instead of watching")
	poll := fs.Duration("poll", 2*time.Second, "spool poll interval")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request timeout")
	backoffBase := fs.Duration("backoff-base", 200*time.Millisecond, "first retry delay")
	backoffMax := fs.Duration("backoff-max", 30*time.Second, "retry delay cap")
	seed := fs.Int64("seed", 0, "backoff jitter seed (0: from the clock)")
	metricsTo := fs.String("metrics", "", "write agent metrics to this file on exit (- = stderr; .json = JSON, else Prometheus text)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tbagent:", err)
		return 1
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %v", fs.Args()))
	}

	var servers []string
	for _, s := range strings.Split(*server, ",") {
		if s = strings.TrimSpace(s); s != "" {
			servers = append(servers, s)
		}
	}
	reg := telemetry.New()
	ag, err := collect.NewFleetAgent(*spool, servers, collect.AgentOptions{
		Client:      &http.Client{Timeout: *timeout},
		BackoffBase: *backoffBase,
		BackoffMax:  *backoffMax,
		Seed:        *seed,
		Telemetry:   reg,
	})
	if err != nil {
		return fail(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-sigs
		cancel()
	}()

	if *once {
		err = ag.Drain(ctx)
	} else {
		// A signal is the clean way out of the watch loop.
		if err = ag.Run(ctx, *poll); errors.Is(err, context.Canceled) {
			err = nil
		}
	}
	if *metricsTo != "" {
		if werr := reg.WriteFile(*metricsTo, stderr); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, "tbagent: spool drained")
	return 0
}
