// tbcollectd is the fleet collection daemon: it fronts a snap
// warehouse (internal/archive) with the versioned HTTP collection
// protocol (internal/collect) so tbagent uploaders on remote machines
// can feed it crash snaps.
//
//	tbcollectd -listen :7321 -store wh -maps snaps/maps
//
// Routes: HEAD /v1/blob/{sum} (dedup precheck), POST /v1/snap
// (idempotent gzip upload with hash echo), GET /v1/buckets and
// /v1/top (fleet triage JSON), GET /v1/regressions (new/spiking
// classification of every signature), GET /v1/rates?sig=<prefix>
// (one signature's crash-rate windows), GET /v1/clusters
// (near-duplicate signature clustering; needs -maps), GET /metrics
// (coll_* + arch_* + triage_* telemetry; ?format=json for JSON), GET
// /healthz (state, uptime, warehouse totals). Uploads beyond
// -inflight concurrent ingests are rejected 429 with Retry-After.
// SIGINT/SIGTERM drains gracefully: new uploads are refused 503 with
// Retry-After, in-flight ingests finish and the store closes with a
// flushed index.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"traceback/internal/archive"
	"traceback/internal/collect"
	"traceback/internal/recon"
	"traceback/internal/telemetry"
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sigs))
}

// run is main with the process edges made explicit for in-process
// tests; sigs triggers the graceful drain.
func run(args []string, stdout, stderr io.Writer, sigs <-chan os.Signal) int {
	fs := flag.NewFlagSet("tbcollectd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "127.0.0.1:7321", "address to listen on")
	store := fs.String("store", "store", "warehouse directory")
	mapsDir := fs.String("maps", "", "directory containing *.map.json mapfiles (empty: weak signatures)")
	inflight := fs.Int("inflight", 4, "max concurrent ingests before 429 backpressure")
	maxBody := fs.Int64("max-body", 64<<20, "max upload body size in bytes")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "bound on the graceful drain at shutdown")
	gateShards := fs.String("gate", "", "comma-separated shard base URLs: run as a fan-out query gate instead of a warehouse daemon")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tbcollectd:", err)
		return 1
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %v", fs.Args()))
	}
	// Without -maps, maps stays a nil interface (never a typed nil
	// *MapCache): the daemon then files snaps under weak signatures.
	var maps recon.MapResolver
	if *mapsDir != "" {
		cache, _, err := recon.NewMapDir(*mapsDir)
		if err != nil {
			return fail(err)
		}
		maps = cache
	}
	if *gateShards != "" {
		return runGate(*listen, *gateShards, maps, *drainTimeout, stdout, fail, sigs)
	}

	reg := telemetry.New()
	arch, err := archive.OpenWith(*store, archive.Options{Telemetry: reg})
	if err != nil {
		return fail(err)
	}
	srv := collect.NewServer(arch, collect.ServerOptions{
		Maps: maps, MaxInflight: *inflight, MaxBodyBytes: *maxBody, Telemetry: reg,
	})
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		arch.Close()
		return fail(err)
	}
	fmt.Fprintf(stdout, "tbcollectd: listening on http://%s (store %s, inflight %d)\n",
		l.Addr(), *store, *inflight)

	// Enter the drain first, so /healthz and every new upload say so
	// before the listener closes.
	err = serveUntil(sigs, srv, l, *drainTimeout, func() {
		srv.BeginDrain()
		fmt.Fprintln(stdout, "tbcollectd: draining")
	})
	if err != nil {
		arch.Close()
		return fail(err)
	}
	if err := arch.Close(); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "tbcollectd: drained; store holds %d blob(s) in %d bucket(s)\n",
		arch.NumBlobs(), len(arch.Buckets()))
	return 0
}

// daemon is the lifecycle collect.Server and gate.Gate share.
type daemon interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
}

// serveUntil serves d on l until a signal arrives — then onSignal
// runs and d gets drainTimeout to shut down gracefully — or until
// Serve fails on its own. A clean shutdown returns nil.
func serveUntil(sigs <-chan os.Signal, d daemon, l net.Listener, drainTimeout time.Duration, onSignal func()) error {
	errc := make(chan error, 1)
	go func() { errc <- d.Serve(l) }()
	var err error
	select {
	case <-sigs:
		onSignal()
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err = d.Shutdown(ctx); err == nil {
			err = <-errc
		}
	case err = <-errc:
	}
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}
