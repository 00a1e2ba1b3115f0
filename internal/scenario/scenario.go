// Package scenario is the one launcher: Launch builds every world —
// tbrun's, the paper's tables', the integration tests' — from a Spec
// that holds its seed, machines and processes as data. The three
// named scenarios are the paper's worked failures (the quickstart
// crash, Figure 6's cross-machine fault, §3.6.1's hang), compiled from
// the examples' MiniC sources; the examples run them and only narrate
// and render. The VM is deterministic, so every re-run reproduces
// byte-identical snaps: the fleet `tools/gen snaps` commits under
// snaps/, and what the warehouse's dedup guarantees are tested against.
//
// A Setup is built but not yet run, so a harness can perturb the world
// first: the fault campaign (internal/fault) installs a vm.Injector
// and shrinks trace buffers, replay installs a recorder.
package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"traceback/internal/core"
	"traceback/internal/minic"
	"traceback/internal/module"
	"traceback/internal/recon"
	"traceback/internal/service"
	"traceback/internal/snap"
	"traceback/internal/tbrt"
	"traceback/internal/vm"
)

// Built is one scenario's output.
type Built struct {
	Name  string
	Snaps []*snap.Snap
	Maps  []*module.MapFile
	Hung  []string // processes the service declared hung (deadlock only)
}

// Options perturbs how a scenario is built. The zero value reproduces
// the committed fleet exactly.
type Options struct {
	// Config overrides the runtime configuration of every process in
	// the scenario (nil: tbrt.Config{Policy: tbrt.DefaultPolicy()},
	// the original). Fault campaigns use tiny BufferWords here for
	// wrap stress.
	Config *tbrt.Config
}

// Spec is one world for Launch, as data.
type Spec struct {
	Seed     int64
	Machines []MachineSpec // in creation order
	Procs    []ProcSpec    // in creation order
}

// MachineSpec is one machine of a Spec.
type MachineSpec struct {
	Name string
	Skew int64 // clock offset from world time, in cycles
}

// ProcSpec is one process of a Spec.
type ProcSpec struct {
	Role    string           // the process name; keys Setup.Procs and Setup.Runtimes
	Machine int              // index into Spec.Machines
	Modules []*module.Module // in load order
	// Config runs the process under the TraceBack runtime, its machine
	// reporting to Config.Telemetry when set; nil runs it uninstrumented.
	Config   *tbrt.Config
	Arg      uint64 // main's argument
	NoMain   bool   // load only: start no main thread
	Endpoint uint64 // the RPC endpoint it serves (0: none)
}

// Setup is a built-but-not-yet-run world: every process is loaded,
// every main thread is started, and nothing has executed. A harness
// may install a vm.Injector, a recorder or an OnStep hook on World
// (or otherwise perturb state) before calling Run.
type Setup struct {
	Name  string // the named scenario; empty for a bare Launch
	World *vm.World
	// Procs and Runtimes key the processes by role ("app", "petstore",
	// …); an uninstrumented process has no runtime.
	Procs    map[string]*vm.Process
	Runtimes map[string]*tbrt.Runtime
	Maps     []*module.MapFile
	// Sources holds a named scenario's source lines, keyed by the file
	// name its line tables record (e.g. "server.c"), and Stats each
	// module's instrumentation statistics, keyed by module name.
	Sources map[string][]string
	Stats   map[string]core.Stats
	// MaxSteps is the default quantum budget for Run.
	MaxSteps int
	// Service is the machine-local watchdog (deadlock scenario only).
	Service *service.Service

	mains   []*vm.Process
	collect func(*Setup, *Built)
}

// Launch builds spec's world: the machines, then each process created
// with its modules loaded and its endpoint registered, then the main
// threads started in spec order. Nothing runs.
func Launch(spec Spec) (*Setup, error) {
	s := &Setup{World: vm.NewWorld(spec.Seed), Procs: map[string]*vm.Process{}, Runtimes: map[string]*tbrt.Runtime{}}
	for _, m := range spec.Machines {
		s.World.NewMachine(m.Name, m.Skew)
	}
	for _, ps := range spec.Procs {
		mach := s.World.Machines[ps.Machine]
		var p *vm.Process
		if ps.Config == nil {
			p = mach.NewProcess(ps.Role, nil)
		} else {
			if ps.Config.Telemetry != nil {
				mach.EnableTelemetry(ps.Config.Telemetry)
			}
			var err error
			if p, s.Runtimes[ps.Role], err = tbrt.NewProcess(mach, ps.Role, *ps.Config); err != nil {
				return nil, err
			}
		}
		for _, m := range ps.Modules {
			if _, err := p.Load(m); err != nil {
				return nil, err
			}
		}
		if ps.Endpoint != 0 {
			s.World.RegisterEndpoint(ps.Endpoint, p)
		}
		s.Procs[ps.Role] = p
	}
	for _, ps := range spec.Procs {
		if p := s.Procs[ps.Role]; !ps.NoMain {
			if _, err := p.StartMain(ps.Arg); err != nil {
				return nil, err
			}
			s.mains = append(s.mains, p)
		}
	}
	return s, nil
}

// Roles lists the world's process roles in sorted order — the order
// campaigns plan over and harvests walk, so both are independent of
// map iteration.
func (s *Setup) Roles() []string {
	roles := make([]string, 0, len(s.Procs))
	for r := range s.Procs {
		roles = append(roles, r)
	}
	sort.Strings(roles)
	return roles
}

// Run drives the world until every process that started a main has
// exited, nothing can run, or maxSteps quanta pass (0: MaxSteps).
func (s *Setup) Run(maxSteps int) {
	if maxSteps <= 0 {
		maxSteps = s.MaxSteps
	}
	running := func(p *vm.Process) bool { return !p.Exited }
	s.World.Run(maxSteps, func() bool { return !slices.ContainsFunc(s.mains, running) })
}

// Collect harvests a named scenario's snaps per its original
// semantics (hang checks included). Call after Run.
func (s *Setup) Collect() (*Built, error) {
	b := &Built{Name: s.Name, Maps: s.Maps}
	s.collect(s, b)
	if len(b.Snaps) == 0 {
		return nil, fmt.Errorf("scenario: %s produced no snap", s.Name)
	}
	return b, nil
}

// Root locates the repository root (the directory holding go.mod) by
// walking up from the current directory, so scenarios can read the
// examples' MiniC sources whether the caller is a test (cwd = package
// dir) or a tool run from the repo root.
func Root() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("scenario: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// named is one named scenario: a Spec whose i'th process loads the
// modules sources[i] names, plus how to harvest it.
type named struct {
	name     string
	spec     Spec
	sources  [][]source
	maxSteps int
	// hangCycles, when set, starts a service watchdog on the first
	// machine with every runtime registered.
	hangCycles uint64
	collect    func(*Setup, *Built)
}

// source is one MiniC module, examples/<scenario>/<module>.mc,
// compiled under the file name its line table records.
type source struct{ module, file string }

// build compiles and instruments the scenario's modules and launches
// it, every process under opts' runtime configuration.
func (n named) build(opts Options) (*Setup, error) {
	root, err := Root()
	if err != nil {
		return nil, err
	}
	cfg := tbrt.Config{Policy: tbrt.DefaultPolicy()}
	if opts.Config != nil {
		cfg = *opts.Config
	}
	spec := n.spec
	spec.Procs = slices.Clone(spec.Procs)
	var maps []*module.MapFile
	sources := map[string][]string{}
	stats := map[string]core.Stats{}
	for i := range spec.Procs {
		spec.Procs[i].Config = &cfg
		for _, src := range n.sources[i] {
			text, err := os.ReadFile(filepath.Join(root, "examples", n.name, src.module+".mc"))
			if err != nil {
				return nil, fmt.Errorf("scenario: %w", err)
			}
			mod, err := minic.Compile(src.module, src.file, string(text))
			if err != nil {
				return nil, err
			}
			res, err := core.Instrument(mod, core.Options{})
			if err != nil {
				return nil, err
			}
			spec.Procs[i].Modules = append(spec.Procs[i].Modules, res.Module)
			maps = append(maps, res.Map)
			sources[src.file] = strings.Split(string(text), "\n")
			stats[src.module] = res.Stats
		}
	}
	s, err := Launch(spec)
	if err != nil {
		return nil, err
	}
	s.Name, s.Maps, s.Sources, s.Stats = n.name, maps, sources, stats
	s.MaxSteps, s.collect = n.maxSteps, n.collect
	if n.hangCycles != 0 {
		s.Service = service.New(s.World.Machines[0], n.hangCycles)
		for _, role := range s.Roles() {
			s.Service.Register(s.Runtimes[role])
		}
	}
	return s, nil
}

// quickstart: a latent divide-by-zero triggered in production mode,
// snapped at the first-chance exception.
var quickstart = named{
	name:     "quickstart",
	spec:     Spec{Seed: 1, Machines: []MachineSpec{{Name: "prod-host"}}, Procs: []ProcSpec{{Role: "app", Arg: 1}}},
	sources:  [][]source{{{"app", "app.mc"}}},
	maxSteps: 1_000_000,
	collect:  func(s *Setup, b *Built) { b.Snaps = s.Runtimes["app"].Snaps() },
}

// crossMachine: a pet-store server faulting inside a string library
// while serving a client on another machine, whose clock is skewed.
var crossMachine = named{
	name: "crossmachine",
	spec: Spec{Seed: 6, Machines: []MachineSpec{{Name: "client-box"}, {Name: "server-box", Skew: 7500}},
		Procs: []ProcSpec{{Role: "petstore", Machine: 1, Endpoint: 9}, {Role: "petclient"}}},
	sources:  [][]source{{{"strlib", "strlib.c"}, {"server", "server.c"}}, {{"client", "client.c"}}},
	maxSteps: 5_000_000,
	collect: func(s *Setup, b *Built) {
		// The server snapped at its first-chance SIGSEGV during the
		// run; the post-mortem pulls add each side's final state.
		server, client := s.Runtimes["petstore"], s.Runtimes["petclient"]
		exc := append([]*snap.Snap(nil), server.Snaps()...)
		b.Snaps = append(exc, server.PostMortemSnap(), client.PostMortemSnap())
	},
}

// deadlock: a lock-order inversion with no crash, detected by the
// service heartbeat and snapped as a hang.
var deadlock = named{
	name:       "deadlock",
	spec:       Spec{Seed: 4, Machines: []MachineSpec{{Name: "prod-host"}}, Procs: []ProcSpec{{Role: "bank"}}},
	sources:    [][]source{{{"bank", "bank.mc"}}},
	maxSteps:   200_000,
	hangCycles: 100_000,
	collect: func(s *Setup, b *Built) {
		m := s.World.Machines[0]
		m.SetClock(m.Clock() + 200_000) // time passes with no progress
		b.Hung = s.Service.CheckStatus()
		b.Snaps = s.Service.Snaps
	},
}

// Builders lists every scenario builder by name, in the committed
// fleet's canonical order.
var Builders = []struct {
	Name  string
	Build func(Options) (*Setup, error)
}{
	{quickstart.name, quickstart.build},
	{crossMachine.name, crossMachine.build},
	{deadlock.name, deadlock.build},
}

// Build builds the named scenario from Builders.
func Build(name string, opts Options) (*Setup, error) {
	for _, b := range Builders {
		if b.Name == name {
			return b.Build(opts)
		}
	}
	return nil, fmt.Errorf("scenario: unknown scenario %q", name)
}

// All runs every scenario in Builders to completion and returns each
// one's harvest, in Builders order.
func All() ([]*Built, error) {
	var out []*Built
	for _, b := range Builders {
		s, err := b.Build(Options{})
		if err != nil {
			return nil, err
		}
		s.Run(0)
		built, err := s.Collect()
		if err != nil {
			return nil, err
		}
		out = append(out, built)
	}
	return out, nil
}

// MapSet bundles a scenario set's mapfiles into one resolver.
func MapSet(builts ...*Built) *recon.MapSet {
	var maps []*module.MapFile
	for _, b := range builts {
		maps = append(maps, b.Maps...)
	}
	return recon.NewMapSet(maps...)
}

// Write persists a scenario's snaps (gzip) and mapfiles into dir and
// dir/maps, with deterministic names, returning the snap paths.
func (b *Built) Write(dir string) ([]string, error) {
	mapDir := filepath.Join(dir, "maps")
	if err := os.MkdirAll(mapDir, 0o755); err != nil {
		return nil, err
	}
	for _, mf := range b.Maps {
		if err := module.WriteMapFile(filepath.Join(mapDir, mf.ModuleName+".map.json"), mf); err != nil {
			return nil, err
		}
	}
	var paths []string
	for i, s := range b.Snaps {
		p := filepath.Join(dir, fmt.Sprintf("%s-%s-%d.snap.json.gz", b.Name, s.Process, i+1))
		if err := snap.SaveFile(p, s); err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	return paths, nil
}
