// The -gate mode: tbcollectd as the fan-out query tier of a sharded
// fleet. It owns no warehouse; every triage route fans out to the
// listed shards and serves the deterministic merge
// (internal/shard/gate).
//
//	tbcollectd -gate http://s0:7321,http://s1:7321,http://s2:7321 -listen :7320
//
// The shard list order is the ring order — it must match the order
// the fleet's tbagent instances were given.
package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"traceback/internal/recon"
	"traceback/internal/shard/gate"
)

func runGate(listen, shardsCSV string, maps recon.MapResolver, drainTimeout time.Duration,
	stdout io.Writer, fail func(error) int, sigs <-chan os.Signal) int {
	var shards []string
	for _, s := range strings.Split(shardsCSV, ",") {
		if s = strings.TrimSpace(s); s != "" {
			shards = append(shards, s)
		}
	}
	g, err := gate.New(shards, gate.Options{Maps: maps})
	if err != nil {
		return fail(err)
	}
	l, err := net.Listen("tcp", listen)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "tbcollectd: gate listening on http://%s over %d shard(s)\n",
		l.Addr(), len(shards))

	err = serveUntil(sigs, g, l, drainTimeout, func() {
		fmt.Fprintln(stdout, "tbcollectd: gate shutting down")
	})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, "tbcollectd: gate stopped")
	return 0
}
