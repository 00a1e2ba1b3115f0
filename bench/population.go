package main

import (
	_ "embed"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"traceback/internal/archive"
	"traceback/internal/core"
	"traceback/internal/fault"
	"traceback/internal/minic"
	"traceback/internal/module"
	"traceback/internal/recon"
	"traceback/internal/scenario"
	"traceback/internal/snap"
	"traceback/internal/tbrt"
	"traceback/internal/vm"
	"traceback/internal/workload"
)

//go:embed testdata/server.mc
var serverSrc string

// worldSeed seeds every vm.World the harness builds. The benchmark
// seed varies the inputs handed to the programs, not the machine they
// run on.
const worldSeed = 42

// program is one MiniC program of a workload's population: compiled,
// instrumented, and given its seeded argument.
type program struct {
	name string
	mod  *module.Module
	res  *core.Result
	arg  uint64

	instrumentMs              float64
	normalCycles, traceCycles uint64 // to completion, both
	// completed is the runtime the traced completion run left behind.
	completed *tbrt.Runtime
}

// maxQuanta bounds a run, as internal/workload does.
const maxQuanta = 1 << 31

// run executes the program to completion on a fresh machine,
// instrumented under tbrt or plain, and returns the process, its
// runtime (nil when plain) and the host time of the interpreter loop
// alone.
func (p *program) run(tr *tracer, instrumented bool) (*vm.Process, *tbrt.Runtime, time.Duration, error) {
	w := vm.NewWorld(worldSeed)
	mach := w.NewMachine("bench", 0)
	var proc *vm.Process
	var rt *tbrt.Runtime
	m := p.mod
	if instrumented {
		done := tr.span("tbrt.NewProcess")
		var err error
		proc, rt, err = tbrt.NewProcess(mach, p.name, tbrt.Config{})
		done()
		if err != nil {
			return nil, nil, 0, err
		}
		m = p.res.Module
	} else {
		proc = mach.NewProcess(p.name, nil)
	}
	if _, err := proc.Load(m); err != nil {
		return nil, nil, 0, err
	}
	if _, err := proc.StartMain(p.arg); err != nil {
		return nil, nil, 0, err
	}
	done := tr.span("vm.World.Run")
	t0 := time.Now()
	w.Run(maxQuanta, func() bool { return proc.Exited })
	wall := time.Since(t0)
	done()
	if !proc.Exited {
		return nil, nil, 0, fmt.Errorf("%s did not finish", p.name)
	}
	if proc.FatalSignal != 0 {
		return nil, nil, 0, fmt.Errorf("%s faulted: signal %d", p.name, proc.FatalSignal)
	}
	return proc, rt, wall, nil
}

// newProgram compiles and instruments src, runs it both ways to get
// the cycle counts behind overhead_ratio, and checks that
// instrumentation did not change the program's result.
func newProgram(name, src string, arg uint64, chk *checks) (*program, error) {
	mod, err := minic.Compile(name, name+".c", src)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	res, err := core.Instrument(mod, core.Options{})
	if err != nil {
		return nil, err
	}
	p := &program{name: name, mod: mod, res: res, arg: arg, instrumentMs: ms(time.Since(t0))}
	plain, _, _, err := p.run(nil, false)
	if err != nil {
		return nil, err
	}
	traced, rt, _, err := p.run(nil, true)
	if err != nil {
		return nil, err
	}
	p.completed = rt
	chk.check(plain.ExitCode == traced.ExitCode, "%s: exit %d instrumented, %d plain", name, traced.ExitCode, plain.ExitCode)
	p.normalCycles, p.traceCycles = plain.Cycles, traced.Cycles
	return p, nil
}

// population is what a workload's seed expands to: the programs its
// machines run, and the snaps its faults leave behind.
type population struct {
	// programs are run, instrumented, in every round.
	programs []*program
	// snappers are the runtimes snapped in every round when the
	// faults do not come from programs (the crash-at-start scenarios):
	// processes already dead, whose buffers PostMortemSnap reads back.
	// Empty means: snap the runtimes this round's program runs left.
	snappers []*tbrt.Runtime
	// snaps is the fault population in operation order, sigs their
	// crash signatures, files their gzip files on disk.
	snaps []*snap.Snap
	sigs  []archive.Signature
	files []string
	maps  *recon.MapSet

	// overhead and growth are the geometric means behind
	// overhead_ratio and code_growth_ratio; managed is the jbb slice.
	overhead, growth, managed float64
	jbbTxns                   int
}

// mapCache is a fresh, shared, counted resolver over the population's
// mapfiles: what tbrecon and tbcollectd put in front of a map directory.
func (pop *population) mapCache() *recon.MapCache {
	return recon.NewMapCache(func(sum string) (*module.MapFile, error) {
		mf, ok := pop.maps.ForChecksum(sum)
		if !ok {
			return nil, fmt.Errorf("no mapfile for checksum %s", sum)
		}
		return mf, nil
	})
}

// jitter scales a reference argument by scale and a seeded ±5 %: enough
// that no two seeds run the same inputs, little enough that a metric
// moves with the code under test rather than with the seed.
func jitter(rng *rand.Rand, ref uint64, scale float64) uint64 {
	a := uint64(math.Round(float64(ref) * scale * (0.95 + 0.1*rng.Float64())))
	if a == 0 {
		a = 1
	}
	return a
}

func specByName(name string) workload.SpecProgram {
	p, ok := workload.SpecByName(name)
	if !ok {
		panic("bench: no SPEC kernel " + name)
	}
	return p
}

// kernels builds the named SPEC-shaped kernels at scale.
func kernels(rng *rand.Rand, names []string, scale float64, chk *checks) ([]*program, error) {
	var out []*program
	for _, n := range names {
		sp := specByName(n)
		p, err := newProgram(sp.Name, sp.Src, jitter(rng, sp.Arg, scale), chk)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// finish derives the population's ratios and adds the programs'
// mapfiles to the resolver.
func (pop *population) finish() {
	var ratios, growth []float64
	for _, p := range pop.programs {
		ratios = append(ratios, float64(p.traceCycles)/float64(p.normalCycles))
		growth = append(growth, 1+p.res.Stats.CodeGrowth())
		pop.maps.Add(p.res.Map)
	}
	if pop.managed > 0 {
		ratios = append(ratios, pop.managed)
	}
	pop.overhead = geomean(ratios)
	pop.growth = geomean(growth)
}

// allKernels names the 15 Table 1 kernels in the paper's order.
func allKernels() []string {
	var names []string
	for _, p := range workload.SpecInt {
		names = append(names, p.Name)
	}
	return names
}

// probeFaults are the kernels whose post-mortem snaps are probe-run's
// fault population: the call- and branch-dense ones. The array
// kernels' snaps carry 30 KB data segments and would spend the rounds
// in gzip; they are still run and snapped in every round.
var probeFaults = []string{"crafty", "eon", "gap", "gcc", "gzip", "parser", "perlbmk", "vortex"}

// specPopulation is probe-run's: all 15 kernels run to completion,
// plus the managed warehouse benchmark for the bytecode
// instrumenter's share of the overhead.
func specPopulation(rng *rand.Rand, scale float64, chk *checks) (*population, error) {
	progs, err := kernels(rng, allKernels(), 0.2*scale, chk)
	if err != nil {
		return nil, err
	}
	txns := int(400*scale) + rng.Intn(80)
	jbb, err := workload.RunJbb(workload.JbbSystems[0], 1, txns)
	if err != nil {
		return nil, err
	}
	pop := &population{programs: progs, maps: recon.NewMapSet(), managed: jbb.Ratio, jbbTxns: txns}
	pop.finish()
	pop.harvest(probeFaults)
	return pop, nil
}

// densePopulation is diagnose-dense's: five kernels and the
// bench-owned 8-thread server, run to completion.
// Every trace buffer has wrapped; the server fills eight at once, the
// kernels one each. (Killing them mid-run instead leaves between three
// and four quarters of each buffer recoverable, depending on where in
// a sub-buffer the kill lands: a 25 % swing in cost from one seed to
// the next. The abrupt-kill path is the sparse population's.)
func densePopulation(rng *rand.Rand, scale float64, chk *checks) (*population, error) {
	progs, err := kernels(rng, []string{"crafty", "gap", "gcc", "perlbmk", "vortex"}, 0.5*scale, chk)
	if err != nil {
		return nil, err
	}
	// The server's argument is not jittered: its eight buffers hold ten
	// times a kernel's records, and a diagnosis' cost would follow it.
	server, err := newProgram("server", serverSrc, uint64(math.Max(1, math.Round(90*scale))), chk)
	if err != nil {
		return nil, err
	}
	progs = append(progs, server)
	pop := &population{programs: progs, maps: recon.NewMapSet()}
	pop.finish()
	pop.harvest(nil)
	return pop, nil
}

// probeSlice is what the machines of a crash-at-start fleet run while
// their short-lived processes fault: four kernels to completion. The
// scenarios themselves execute about a thousand cycles, too few to
// time an interpreter on.
var probeSlice = []string{"crafty", "gap", "gcc", "vortex"}

// sparseKinds are the fault kinds whose trials join the scenario
// fleet; each leaves snaps with about a hundred records in 789 KB of
// JSON.
var sparseKinds = []string{fault.KindKill, fault.KindSignal, fault.KindRPCDrop, fault.KindRPCDelay, fault.KindRPCDup}

// cleanTrial runs one fault-campaign trial and returns its harvest.
// A campaign seed under which the trial violates one of tbfault's
// invariants is a finding for tbfault, not an input for a benchmark
// (which needs operations that do not fail): the next seed is tried
// instead, so the population stays a function of the benchmark seed.
func cleanTrial(campSeed int64, kind, scen string) ([]*snap.Snap, []*module.MapFile, error) {
	const tries = 16
	for i := int64(0); i < tries; i++ {
		camp, err := fault.New(fault.Config{Seed: campSeed + i, Kinds: []string{kind}})
		if err != nil {
			return nil, nil, err
		}
		rep, snaps, maps, err := camp.Trial(kind, scen)
		if err != nil {
			return nil, nil, fmt.Errorf("trial %s/%s: %w", kind, scen, err)
		}
		if len(rep.Violations) == 0 {
			return snaps, maps, nil
		}
	}
	return nil, nil, fmt.Errorf("trial %s/%s: invariant violations under %d consecutive campaign seeds from %d", kind, scen, tries, campSeed)
}

// sparsePopulation is diagnose-sparse's and fleet-wire's: the example
// scenarios' snaps plus seeded fault-campaign trials over them, in a
// seeded order.
func sparsePopulation(rng *rand.Rand, scale float64, chk *checks) (*population, error) {
	progs, err := kernels(rng, probeSlice, 0.25*scale, chk)
	if err != nil {
		return nil, err
	}
	pop := &population{programs: progs, maps: recon.NewMapSet()}
	builts, err := scenario.All()
	if err != nil {
		return nil, err
	}
	for _, b := range builts {
		pop.snaps = append(pop.snaps, b.Snaps...)
		for _, mf := range b.Maps {
			pop.maps.Add(mf)
		}
	}
	campSeed := rng.Int63n(1 << 30)
	for _, kind := range sparseKinds {
		for _, b := range scenario.Builders {
			snaps, maps, err := cleanTrial(campSeed, kind, b.Name)
			if err != nil {
				return nil, err
			}
			pop.snaps = append(pop.snaps, snaps...)
			for _, mf := range maps {
				pop.maps.Add(mf)
			}
		}
	}
	rng.Shuffle(len(pop.snaps), func(i, j int) { pop.snaps[i], pop.snaps[j] = pop.snaps[j], pop.snaps[i] })

	for _, b := range scenario.Builders {
		setup, err := b.Build(scenario.Options{})
		if err != nil {
			return nil, err
		}
		setup.Run(0)
		var roles []string
		for role := range setup.Runtimes {
			roles = append(roles, role)
		}
		sort.Strings(roles)
		for _, role := range roles {
			pop.snappers = append(pop.snappers, setup.Runtimes[role])
		}
	}
	pop.finish()
	return pop, nil
}

// harvest makes the post-mortem snaps of the named programs (all when
// names is nil) the fault population.
func (pop *population) harvest(names []string) {
	for _, p := range pop.programs {
		if names == nil || slices.Contains(names, p.name) {
			pop.snaps = append(pop.snaps, p.completed.PostMortemSnap())
		}
	}
}

// materialize signs every snap, writes the gzip files the diagnosis
// passes read, and holds the parallel pipeline to the sequential
// oracle once per snap.
func (pop *population) materialize(dir string, jobs int, chk *checks) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	pipe := recon.NewPipeline(pop.maps, jobs)
	for i, s := range pop.snaps {
		path := filepath.Join(dir, fmt.Sprintf("%03d.snap.json.gz", i))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = s.SaveCompressed(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		pop.files = append(pop.files, path)

		seq, err := recon.Reconstruct(s, pop.maps)
		if err != nil {
			return fmt.Errorf("snap %d: %w", i, err)
		}
		par, err := pipe.ReconstructSnap(s)
		if err != nil {
			return fmt.Errorf("snap %d: %w", i, err)
		}
		chk.check(renderString(seq) == renderString(par), "snap %d: pipeline render differs from the sequential oracle", i)
		pop.sigs = append(pop.sigs, archive.FromTrace(seq))
	}
	return nil
}
