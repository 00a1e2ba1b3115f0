// Cross-machine trace (the paper's Figure 6): a C++-style client on
// one machine calls a pet-store server on another over DCOM-style
// RPC. The server's SetPetName writes through a pointer that was
// never allocated (the paper's "const WCHAR* instead of WCHAR[32]"),
// faulting inside a string-library module. The server's handler
// converts the fault into an RPC_E_SERVERFAULT status; the client
// fails to check it and happily calls GetPetName, which "succeeds"
// with a wrong name.
//
// The world is the "crossmachine" scenario: client.c, server.c and
// strlib.c (the msvcr70d.dll analog, a library the server links).
//
// TraceBack instruments both sides; the SYNC records written around
// the RPCs stitch the client and server physical threads into one
// logical thread, so the reconstructed trace walks from the client's
// call, across the network, into the library code that faulted.
//
//	go run ./examples/crossmachine
package main

import (
	"fmt"
	"log"
	"os"

	"traceback/internal/recon"
	"traceback/internal/scenario"
	"traceback/internal/snap"
	"traceback/internal/vm"
)

func main() {
	s, err := scenario.Build("crossmachine", scenario.Options{})
	if err != nil {
		log.Fatal(err)
	}
	s.Run(0)
	fmt.Printf("client: %s, server: %s\n",
		vm.SignalName(s.Procs["petclient"].FatalSignal), vm.SignalName(s.Procs["petstore"].FatalSignal))
	fmt.Printf("server snaps: %d (first-chance SIGSEGV in wcscpy)\n\n", len(s.Runtimes["petstore"].Snaps()))

	// Gather both sides' snaps — the harvest ends with the server's
	// and the client's post-mortem pulls — and stitch.
	b, err := s.Collect()
	if err != nil {
		log.Fatal(err)
	}
	maps := scenario.MapSet(b)
	n := len(b.Snaps)
	var pts []*recon.ProcessTrace
	for _, sn := range []*snap.Snap{b.Snaps[n-1], b.Snaps[n-2]} {
		pt, err := recon.Reconstruct(sn, maps)
		if err != nil {
			log.Fatal(err)
		}
		pts = append(pts, pt)
	}
	mt := recon.Stitch(pts)
	fmt.Printf("logical threads: %d, skew estimates: %v\n\n", len(mt.Logical), mt.SkewEstimates)

	for _, lt := range mt.Logical {
		recon.RenderLogical(os.Stdout, lt, recon.RenderOptions{
			Source: func(file string) []string { return s.Sources[file] },
		})
		fmt.Println()
	}
	fmt.Println("The stitched trace crosses machines: the client's call, the")
	fmt.Println("server dispatch, and the fault inside the library module —")
	fmt.Println("with sequence numbers ordering the segments despite clock skew.")
}
