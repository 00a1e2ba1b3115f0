// Cross-language trace (the paper's Figure 5): a managed program
// passes a long string across the JNI-style boundary to a native C
// function that allocated only a tiny buffer — "we only get short
// strings". The memcpy smashes the native stack; the wild return
// would defeat a stack-walking debugger, but the TraceBack flight
// recorder shows the control flow from the managed call site into
// NativeString.c right up to the overrun.
//
// Both sides are compiled from MiniC source: the native backend for
// NativeString.c, the managed backend (the paper's MSIL/Java path)
// for NativeString.java.
//
//	go run ./examples/crosslang
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"traceback/examples"
	"traceback/internal/core"
	"traceback/internal/minic"
	"traceback/internal/module"
	"traceback/internal/mvm"
	"traceback/internal/recon"
	"traceback/internal/scenario"
	"traceback/internal/tbrt"
	"traceback/internal/vm"
)

// The managed side declares the native method extern and calls it —
// the comment in the paper's figure says it all.
const managedSrcTemplate = `extern "NativeString.c" int copy_string(int src, int n);
int main(int straddr) {
	int n = %d;
	copy_string(straddr, n);
	return 0;
}`

func main() {
	// Native side: compile + instrument.
	nativeSrc, err := examples.Sources.ReadFile("crosslang/NativeString.mc")
	if err != nil {
		log.Fatal(err)
	}
	nat, err := minic.Compile("NativeString.c", "NativeString.c", string(nativeSrc))
	if err != nil {
		log.Fatal(err)
	}
	natRes, err := core.Instrument(nat, core.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// The JVM's host process: the instrumented native library is
	// loaded, and the managed runtime (attached below) runs main.
	s, err := scenario.Launch(scenario.Spec{Seed: 3, Machines: []scenario.MachineSpec{{Name: "solaris-box"}},
		Procs: []scenario.ProcSpec{{Role: "java", Modules: []*module.Module{natRes.Module},
			Config: &tbrt.Config{Policy: tbrt.DefaultPolicy()}, NoMain: true}}})
	if err != nil {
		log.Fatal(err)
	}
	proc, natRT := s.Procs["java"], s.Runtimes["java"]

	// The "long string" in native memory; the managed side gets its
	// address through JNI.
	long := "definitely not a short string at all, sorry"
	strAddr := proc.AllocRegion(256)
	proc.WriteBytes(uint64(strAddr), []byte(long))

	// Managed side: compile with the managed backend + instrument.
	managedSrc := fmt.Sprintf(managedSrcTemplate, len(long))
	jsrc, err := minic.CompileManaged("NativeString.java", "NativeString.java", managedSrc)
	if err != nil {
		log.Fatal(err)
	}
	jmod, jmap, err := mvm.Instrument(jsrc, 0)
	if err != nil {
		log.Fatal(err)
	}

	jvm, err := mvm.New(proc.Machine, proc, "java", mvm.RuntimeConfig{})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := jvm.Load(jmod); err != nil {
		log.Fatal(err)
	}
	th, err := jvm.Start("main", int64(strAddr))
	if err != nil {
		log.Fatal(err)
	}
	jvm.Run(1_000_000, nil)

	fmt.Printf("native process: %s; managed thread: %s\n\n",
		vm.SignalName(proc.FatalSignal), mvm.ExcName(th.Uncaught))

	// Reconstruct one snap per runtime and stitch the logical thread.
	maps := recon.NewMapSet(natRes.Map, jmap)
	natPT, err := recon.Reconstruct(natRT.Snaps()[0], maps)
	if err != nil {
		log.Fatal(err)
	}
	jvmPT, err := recon.Reconstruct(jvm.Runtime().Snaps()[0], maps)
	if err != nil {
		log.Fatal(err)
	}
	mt := recon.Stitch([]*recon.ProcessTrace{jvmPT, natPT})

	sources := map[string][]string{
		"NativeString.java": strings.Split(managedSrc, "\n"),
		"NativeString.c":    strings.Split(string(nativeSrc), "\n"),
	}
	for _, lt := range mt.Logical {
		recon.RenderLogical(os.Stdout, lt, recon.RenderOptions{
			Source: func(f string) []string { return sources[f] },
		})
	}
	if !crossesJNI(mt) {
		log.Fatal("no stitched logical thread holds lines from both NativeString.java and NativeString.c")
	}
	fmt.Println("\nThe trace crosses the JNI boundary: the managed call site, then")
	fmt.Println("the native path into memcpy — where a 43-byte string lands in an 8-byte")
	fmt.Println("buffer, smashing the return address. A stack backtrace here shows")
	fmt.Println("garbage; the flight-recorder history does not need the stack at all.")
}

// crossesJNI reports whether some logical thread carries line events
// from both sides of the boundary — the managed SYNC path working end
// to end.
func crossesJNI(mt *recon.MasterTrace) bool {
	for _, lt := range mt.Logical {
		files := map[string]bool{}
		for _, seg := range lt.Segments {
			for _, e := range seg.Events {
				if e.Kind == recon.EvLine {
					files[e.File] = true
				}
			}
		}
		if files["NativeString.java"] && files["NativeString.c"] {
			return true
		}
	}
	return false
}
