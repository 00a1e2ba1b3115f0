// Hang diagnosis: two threads take two locks in opposite orders and
// deadlock (bank.mc, the "deadlock" scenario). Nothing crashes — so no
// exception trigger fires. The per-machine TraceBack service process
// detects the hang through its heartbeat (the process stops making
// progress), snaps it, and the fault-directed view shows one line per
// thread: exactly where each one is stuck (paper §3.6.1, §3.7.5,
// §4.3.3).
//
//	go run ./examples/deadlock
package main

import (
	"fmt"
	"log"
	"os"

	"traceback/internal/recon"
	"traceback/internal/scenario"
)

func main() {
	// The machine's service process has the runtime registered.
	s, err := scenario.Build("deadlock", scenario.Options{})
	if err != nil {
		log.Fatal(err)
	}
	// Run; the process deadlocks and stops making progress.
	s.Run(0)
	fmt.Printf("process exited: %v (it is hung)\n", s.Procs["bank"].Exited)

	// The service heartbeat sweep notices and snaps.
	b, err := s.Collect()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("service detected hung processes: %v (%d snap)\n\n", b.Hung, len(b.Snaps))

	pt, err := recon.Reconstruct(b.Snaps[0], scenario.MapSet(b))
	if err != nil {
		log.Fatal(err)
	}
	recon.Render(os.Stdout, pt, recon.RenderOptions{
		Source:    func(file string) []string { return s.Sources[file] },
		MaxEvents: 12,
	})
	fmt.Println("\nThe hang view shows thread 2 stopped at the lock_audit acquire")
	fmt.Println("and thread 3 at the lock_accounts acquire: a lock-order inversion.")
}
