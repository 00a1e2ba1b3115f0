// Package loopback boots the fleet plane in-process over loopback TCP:
// tbcollectd nodes that can be killed and restarted on a stable
// address, a fan-out gate over them, and the seeded two-phase crash
// campaign the fleet tests stage through them. It is the one harness
// behind every test that needs a real listener rather than httptest —
// its own end-to-end tests of the fleet plane (fleet_test.go), the
// gate's, tbstore watch's — so "listen, serve, shut down,
// ErrServerClosed is fine" is written here once.
package loopback

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"traceback/internal/archive"
	"traceback/internal/collect"
	"traceback/internal/shard/gate"
	"traceback/internal/triage"
)

const (
	// stopTimeout bounds a graceful stop; in-flight loopback ingests
	// finish in milliseconds.
	stopTimeout = 10 * time.Second
	// fetchTimeout bounds one Fetch, so a wedged daemon fails the test
	// that asked instead of hanging it to the `go test` deadline.
	fetchTimeout = 30 * time.Second
)

// daemon is the lifecycle collect.Server and gate.Gate share.
type daemon interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
}

// running is a daemon being served on a listener.
type running struct {
	d    daemon
	errc chan error
	once sync.Once
	err  error // of the one stop
}

func serve(d daemon, l net.Listener) *running {
	r := &running{d: d, errc: make(chan error, 1)}
	go func() { r.errc <- d.Serve(l) }()
	return r
}

// stop shuts the daemon down gracefully and waits for Serve to return.
// A second stop (a test's cleanup after the test already killed the
// daemon) reports the first one's result.
func (r *running) stop() error {
	r.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), stopTimeout)
		defer cancel()
		r.err = r.d.Shutdown(ctx)
		if serr := <-r.errc; r.err == nil && !errors.Is(serr, http.ErrServerClosed) {
			r.err = serr
		}
	})
	return r.err
}

// Node is one in-process tbcollectd: a warehouse opened at a store
// directory, fronted by a collect.Server on a loopback port.
type Node struct {
	Arch *archive.Archive
	Srv  *collect.Server
	URL  string

	dir  string
	opts collect.ServerOptions
	addr string
	run  *running
}

// StartNode opens (or reopens) the warehouse at dir and serves it on
// an ephemeral loopback port.
func StartNode(dir string, opts collect.ServerOptions) (*Node, error) {
	arch, err := archive.Open(dir)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		arch.Close()
		return nil, err
	}
	addr := l.Addr().String()
	n := &Node{Arch: arch, URL: "http://" + addr, dir: dir, opts: opts, addr: addr}
	n.start(l)
	return n, nil
}

func (n *Node) start(l net.Listener) {
	n.Srv = collect.NewServer(n.Arch, n.opts)
	n.run = serve(n.Srv, l)
}

// Kill drains the daemon and closes its listener; uploads to URL now
// fail to connect. The warehouse stays open, so the caller can still
// inspect Arch, Restart the daemon, or Close the node.
func (n *Node) Kill() error { return n.run.stop() }

// Restart closes the killed node's warehouse, reopens it from its
// directory and serves it from a fresh daemon on the same address, as
// a restarted shard would: the journal is replayed and the archive
// draws a new epoch, so Arch is a new value afterwards.
func (n *Node) Restart() error {
	if err := n.Arch.Close(); err != nil {
		return err
	}
	arch, err := archive.Open(n.dir)
	if err != nil {
		return err
	}
	n.Arch = arch
	l, err := net.Listen("tcp", n.addr)
	if err != nil {
		return err
	}
	n.start(l)
	return nil
}

// Close closes the warehouse of a killed node, flushing its index.
func (n *Node) Close() error { return n.Arch.Close() }

// Gate is an in-process fan-out gate on a loopback port.
type Gate struct {
	Gate *gate.Gate
	URL  string
	run  *running
}

// StartGate serves a gate over the shard URLs, listed in ring order.
func StartGate(urls []string, opts gate.Options) (*Gate, error) {
	g, err := gate.New(urls, opts)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &Gate{Gate: g, URL: "http://" + l.Addr().String(), run: serve(g, l)}, nil
}

// Kill stops the gate.
func (g *Gate) Kill() error { return g.run.stop() }

var fetchClient = &http.Client{Timeout: fetchTimeout}

// Fetch GETs url and returns the body of a 200 answer; any other
// status, or no answer within fetchTimeout, is an error.
func Fetch(url string) ([]byte, error) {
	resp, err := fetchClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	return body, nil
}

// Flagged pulls /v1/regressions from a daemon or gate and returns the
// signatures it flags as new or spiking.
func Flagged(base string) (map[string]bool, error) {
	body, err := Fetch(base + collect.PathRegressions)
	if err != nil {
		return nil, err
	}
	var rep triage.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		return nil, fmt.Errorf("regressions: %w", err)
	}
	return FlaggedSet(&rep), nil
}

// FlaggedSet is the set of signatures a regression report flags.
func FlaggedSet(rep *triage.Report) map[string]bool {
	out := map[string]bool{}
	for _, a := range rep.Flagged() {
		out[a.Sig] = true
	}
	return out
}
