// Package scenario re-runs the example workloads (examples/quickstart,
// examples/crossmachine, examples/deadlock) in-process and hands back
// the snaps and mapfiles they produce. The examples double as the
// repository's fleet simulator: the VM is deterministic, so every
// re-run reproduces byte-identical snaps — which is exactly what the
// warehouse's signature-stability and dedup guarantees are tested
// against (and what `tools/gen snaps` commits under snaps/).
//
// Each scenario is split into build (compile, create the world,
// start threads) and run (drive the world, harvest snaps) so that
// harnesses can perturb the built world before running it — the
// fault-injection campaign (internal/fault) installs a vm.Injector
// and shrinks trace buffers between the two phases. All runs every
// scenario unperturbed, byte for byte as the examples do.
package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

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

func (o Options) config() tbrt.Config {
	if o.Config != nil {
		return *o.Config
	}
	return tbrt.Config{Policy: tbrt.DefaultPolicy()}
}

// Setup is a built-but-not-yet-run scenario: the world exists, every
// process's main thread is started, and nothing has executed. A
// harness may install a vm.Injector on World (or otherwise perturb
// state) before calling Run.
type Setup struct {
	Name  string
	World *vm.World
	// Procs and Runtimes key the scenario's processes by role name
	// (e.g. "app", "petstore", "petclient", "bank").
	Procs    map[string]*vm.Process
	Runtimes map[string]*tbrt.Runtime
	Maps     []*module.MapFile
	// MaxSteps is the default quantum budget for Run.
	MaxSteps int
	// Service is the machine-local watchdog (deadlock scenario only).
	Service *service.Service

	done    func(*Setup) bool
	collect func(*Setup) *Built
}

// Roles lists the scenario's process roles in sorted order — the
// order campaigns plan over and harvests walk, so both are independent
// of map iteration.
func (s *Setup) Roles() []string {
	roles := make([]string, 0, len(s.Procs))
	for r := range s.Procs {
		roles = append(roles, r)
	}
	sort.Strings(roles)
	return roles
}

// Run drives the world until the scenario's completion condition,
// nothing can run, or maxSteps quanta pass (0: the scenario default).
func (s *Setup) Run(maxSteps int) {
	if maxSteps <= 0 {
		maxSteps = s.MaxSteps
	}
	s.World.Run(maxSteps, func() bool { return s.done(s) })
}

// Collect harvests the scenario's snaps per its original semantics
// (hang checks included). Call after Run.
func (s *Setup) Collect() (*Built, error) {
	b := s.collect(s)
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

func compile(root, name, file, relPath string) (*module.Module, *core.Result, error) {
	src, err := os.ReadFile(filepath.Join(root, relPath))
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: %w", err)
	}
	mod, err := minic.Compile(name, file, string(src))
	if err != nil {
		return nil, nil, err
	}
	res, err := core.Instrument(mod, core.Options{})
	if err != nil {
		return nil, nil, err
	}
	return mod, res, nil
}

// BuildQuickstart builds examples/quickstart: a latent divide-by-zero
// triggered in production mode, snapped at the first-chance exception.
func BuildQuickstart(opts Options) (*Setup, error) {
	root, err := Root()
	if err != nil {
		return nil, err
	}
	_, res, err := compile(root, "app", "app.mc", "examples/quickstart/app.mc")
	if err != nil {
		return nil, err
	}
	world := vm.NewWorld(1)
	machine := world.NewMachine("prod-host", 0)
	proc, rt, err := tbrt.NewProcess(machine, "app", opts.config())
	if err != nil {
		return nil, err
	}
	if _, err := proc.Load(res.Module); err != nil {
		return nil, err
	}
	if _, err := proc.StartMain(1); err != nil {
		return nil, err
	}
	return &Setup{
		Name:     "quickstart",
		World:    world,
		Procs:    map[string]*vm.Process{"app": proc},
		Runtimes: map[string]*tbrt.Runtime{"app": rt},
		Maps:     []*module.MapFile{res.Map},
		MaxSteps: 1_000_000,
		done:     func(*Setup) bool { return proc.Exited },
		collect: func(s *Setup) *Built {
			return &Built{Name: s.Name, Snaps: rt.Snaps(), Maps: s.Maps}
		},
	}, nil
}

// BuildCrossMachine builds examples/crossmachine: a pet-store server
// faulting inside a string library while serving a client on another
// machine.
func BuildCrossMachine(opts Options) (*Setup, error) {
	root, err := Root()
	if err != nil {
		return nil, err
	}
	_, strlibRes, err := compile(root, "strlib", "strlib.c", "examples/crossmachine/strlib.mc")
	if err != nil {
		return nil, err
	}
	_, serverRes, err := compile(root, "server", "server.c", "examples/crossmachine/server.mc")
	if err != nil {
		return nil, err
	}
	_, clientRes, err := compile(root, "client", "client.c", "examples/crossmachine/client.mc")
	if err != nil {
		return nil, err
	}

	world := vm.NewWorld(6)
	clientBox := world.NewMachine("client-box", 0)
	serverBox := world.NewMachine("server-box", 7500)
	serverProc, serverRT, err := tbrt.NewProcess(serverBox, "petstore", opts.config())
	if err != nil {
		return nil, err
	}
	if _, err := serverProc.Load(strlibRes.Module); err != nil {
		return nil, err
	}
	if _, err := serverProc.Load(serverRes.Module); err != nil {
		return nil, err
	}
	clientProc, clientRT, err := tbrt.NewProcess(clientBox, "petclient", opts.config())
	if err != nil {
		return nil, err
	}
	if _, err := clientProc.Load(clientRes.Module); err != nil {
		return nil, err
	}
	world.RegisterEndpoint(9, serverProc)
	if _, err := serverProc.StartMain(0); err != nil {
		return nil, err
	}
	if _, err := clientProc.StartMain(0); err != nil {
		return nil, err
	}
	return &Setup{
		Name:  "crossmachine",
		World: world,
		Procs: map[string]*vm.Process{
			"petstore": serverProc, "petclient": clientProc,
		},
		Runtimes: map[string]*tbrt.Runtime{
			"petstore": serverRT, "petclient": clientRT,
		},
		Maps:     []*module.MapFile{strlibRes.Map, serverRes.Map, clientRes.Map},
		MaxSteps: 5_000_000,
		done:     func(*Setup) bool { return clientProc.Exited && serverProc.Exited },
		collect: func(s *Setup) *Built {
			b := &Built{Name: s.Name, Maps: s.Maps}
			// The server snapped at its first-chance SIGSEGV during
			// the run; the post-mortem pulls add each side's final
			// state.
			exc := append([]*snap.Snap(nil), serverRT.Snaps()...)
			b.Snaps = append(exc, serverRT.PostMortemSnap(), clientRT.PostMortemSnap())
			return b
		},
	}, nil
}

// BuildDeadlock builds examples/deadlock: a lock-order inversion with
// no crash, detected by the service heartbeat and snapped as a hang.
func BuildDeadlock(opts Options) (*Setup, error) {
	root, err := Root()
	if err != nil {
		return nil, err
	}
	_, res, err := compile(root, "bank", "bank.mc", "examples/deadlock/bank.mc")
	if err != nil {
		return nil, err
	}
	world := vm.NewWorld(4)
	mach := world.NewMachine("prod-host", 0)
	proc, rt, err := tbrt.NewProcess(mach, "bank", opts.config())
	if err != nil {
		return nil, err
	}
	if _, err := proc.Load(res.Module); err != nil {
		return nil, err
	}
	svc := service.New(mach, 100_000)
	svc.Register(rt)
	if _, err := proc.StartMain(0); err != nil {
		return nil, err
	}
	return &Setup{
		Name:     "deadlock",
		World:    world,
		Procs:    map[string]*vm.Process{"bank": proc},
		Runtimes: map[string]*tbrt.Runtime{"bank": rt},
		Maps:     []*module.MapFile{res.Map},
		MaxSteps: 200_000,
		Service:  svc,
		done:     func(*Setup) bool { return proc.Exited },
		collect: func(s *Setup) *Built {
			mach.SetClock(mach.Clock() + 200_000)
			svc.CheckStatus()
			return &Built{Name: s.Name, Snaps: svc.Snaps, Maps: s.Maps}
		},
	}, nil
}

// Builders lists every scenario builder by name, in the committed
// fleet's canonical order.
var Builders = []struct {
	Name  string
	Build func(Options) (*Setup, error)
}{
	{"quickstart", BuildQuickstart},
	{"crossmachine", BuildCrossMachine},
	{"deadlock", BuildDeadlock},
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
