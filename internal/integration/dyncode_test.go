package integration_test

import (
	"fmt"
	"testing"

	"traceback/internal/core"
	"traceback/internal/minic"
	"traceback/internal/recon"
	"traceback/internal/tbrt"
	"traceback/internal/vm"
)

// TestDynamicCodeGenerationCache reproduces paper §3.4: a web-host
// process generates page modules at runtime (the ASP.NET/.jsp path).
// The runtime hooks module creation, instruments each page before
// use, and caches the instrumented image by checksum so later loads
// (including by later "processes") skip re-instrumentation; editing a
// page changes its checksum and triggers re-instrumentation.
func TestDynamicCodeGenerationCache(t *testing.T) {
	cache := core.NewCache(core.Options{})

	// The "page compiler": generates MiniC for a page on demand.
	pageSource := func(name string, version int) string {
		return fmt.Sprintf(`int render_%s() {
	int total = 0;
	for (int i = 0; i < 10; i = i + 1) {
		total = total + i * %d;
	}
	return total;
}
int main() { exit(render_%s()); }`, name, version+2, name)
	}

	// The host application loads pages dynamically by name.
	hostSrc := `int main() {
	int h1 = load_module("page_index");
	int h2 = load_module("page_cart");
	int h3 = load_module("page_index");
	exit((h1 != 0) + (h2 != 0) * 10 + (h3 != 0) * 100);
}`
	hostMod, err := minic.Compile("host", "host.mc", hostSrc)
	if err != nil {
		t.Fatal(err)
	}
	hostRes, err := cache.Instrument(hostMod)
	if err != nil {
		t.Fatal(err)
	}

	runHost := func() (*vm.Process, *tbrt.Runtime) {
		s := launchApp(t, 31, &tbrt.Config{}, 0, hostRes.Module)
		p := s.Procs["app"]
		p.SetModuleResolver(func(name string) *vm.LoadedModule {
			page, err := minic.Compile(name, name+".mc", pageSource(name, 1))
			if err != nil {
				t.Fatal(err)
				return nil
			}
			res, err := cache.Instrument(page)
			if err != nil {
				t.Fatal(err)
				return nil
			}
			lm, err := p.Load(res.Module)
			if err != nil {
				t.Fatal(err)
				return nil
			}
			return lm
		})
		return runApp(t, s), s.Runtimes["app"]
	}

	p1, _ := runHost()
	if p1.ExitCode != 111 {
		t.Fatalf("host exit = %d, want 111 (all three loads succeed)", p1.ExitCode)
	}
	// Two distinct pages instrumented; the duplicate load of
	// page_index hit the cache (same checksum).
	if cache.Misses != 3 || cache.Hits != 1 { // host + 2 pages; 1 hit
		t.Errorf("cache: %d misses %d hits, want 3/1", cache.Misses, cache.Hits)
	}

	// A second host process (the "subsequent ASP.NET process")
	// benefits from the cache entirely.
	p2, rt2 := runHost()
	if p2.ExitCode != 111 {
		t.Fatalf("second host exit = %d", p2.ExitCode)
	}
	if cache.Misses != 3 {
		t.Errorf("second process re-instrumented: %d misses", cache.Misses)
	}

	// The dynamically loaded pages are fully traced: both modules'
	// DAG ranges appear in the snap and reconstruct.
	// host + page_index + page_cart + the second page_index load
	// (each load is a distinct mapping, like LoadLibrary twice).
	s := rt2.PostMortemSnap()
	if len(s.Modules) != 4 {
		t.Fatalf("%d modules in snap, want 4", len(s.Modules))
	}
	// The duplicate load of the same image was rebased to a distinct
	// DAG range so its records remain attributable.
	var idxBases []uint32
	for _, mi := range s.Modules {
		if mi.Name == "page_index" {
			idxBases = append(idxBases, mi.ActualDAGBase)
		}
	}
	if len(idxBases) != 2 || idxBases[0] == idxBases[1] {
		t.Errorf("duplicate loads share a DAG base: %v", idxBases)
	}
	maps := recon.NewMapSet(hostRes.Map)
	for _, name := range []string{"page_index", "page_cart"} {
		page, _ := minic.Compile(name, name+".mc", pageSource(name, 1))
		res, _ := cache.Instrument(page)
		maps.Add(res.Map)
	}
	pt, err := recon.Reconstruct(s, maps)
	if err != nil {
		t.Fatal(err)
	}
	// Dynamic loads happen after the last page's main would run; only
	// the host main thread exists, and its trace is recoverable.
	if len(pt.Threads) == 0 {
		t.Fatal("nothing reconstructed")
	}

	// "When a module is rebuilt due to changes in the .aspx source,
	// the runtime notices a modified checksum and re-instruments."
	edited, err := minic.Compile("page_index", "page_index.mc", pageSource("page_index", 9))
	if err != nil {
		t.Fatal(err)
	}
	before := cache.Misses
	if _, err := cache.Instrument(edited); err != nil {
		t.Fatal(err)
	}
	if cache.Misses != before+1 {
		t.Error("edited page was not re-instrumented")
	}
	if cache.Len() != 4 {
		t.Errorf("cache has %d entries, want 4", cache.Len())
	}
}
