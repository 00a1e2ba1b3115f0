package replay

import (
	"bytes"
	"fmt"

	"traceback/internal/module"
	"traceback/internal/mvm"
	"traceback/internal/scenario"
	"traceback/internal/snap"
	"traceback/internal/tbrt"
	"traceback/internal/workload"
)

// Result is one replayed (or recorded) run's harvest.
type Result struct {
	Snaps []*snap.Snap
	Maps  []*module.MapFile
	// Divergence is non-nil when the replay stopped conforming to the
	// log (strict mode) or failed byte-identity (Verify).
	Divergence *Divergence
	// Identical is set by Verify when every replayed snap matched the
	// original byte for byte.
	Identical bool
}

// WrapOptions returns the tiny-buffer runtime configuration the
// fault campaign's wrap kind runs under; recordings with Wrap set
// replay with the same config.
func WrapOptions() scenario.Options {
	return scenario.Options{Config: &tbrt.Config{BufferWords: 128, SubBuffers: 4, Policy: tbrt.DefaultPolicy()}}
}

func options(l *Log) scenario.Options {
	if l.Wrap {
		return WrapOptions()
	}
	return scenario.Options{}
}

// HarvestTrial collects a run's snaps exactly as the fault campaign
// does after a trial: the service heartbeat first (hang detection),
// then per sorted role the policy snaps plus a post-mortem pull.
// Replay and campaign share this function so a replayed trial's
// harvest is positionally comparable to the original's.
func HarvestTrial(setup *scenario.Setup) []*snap.Snap {
	roles := setup.Roles()
	if setup.Service != nil && len(roles) > 0 {
		m := setup.Procs[roles[0]].Machine
		m.SetClock(m.Clock() + 200_000)
		setup.Service.CheckStatus()
	}
	var snaps []*snap.Snap
	for _, role := range roles {
		rt := setup.Runtimes[role]
		snaps = append(snaps, rt.Snaps()...)
		if pm := rt.PostMortemSnap(); pm != nil {
			snaps = append(snaps, pm)
		}
	}
	return snaps
}

// harvest collects per the log's provenance: trial-style or the
// scenario's own Collect path.
func harvest(l *Log, setup *scenario.Setup) ([]*snap.Snap, error) {
	if l.Trial {
		return HarvestTrial(setup), nil
	}
	b, err := setup.Collect()
	if err != nil {
		return nil, err
	}
	return b.Snaps, nil
}

// Record runs a scenario with recording on and returns the log plus
// the harvest (whose snaps do NOT carry the section — call
// Log.Attach for that). Provenance mirrors the arguments.
func Record(name string, wrap, trial bool) (*Log, *Result, error) {
	setup, err := scenario.Build(name, options(&Log{Wrap: wrap}))
	if err != nil {
		return nil, nil, err
	}
	rec := NewRecorder(0)
	setup.World.SetRecorder(rec)
	setup.Run(0)
	l := rec.Log(name, wrap, trial)
	snaps, err := harvest(l, setup)
	if err != nil {
		return nil, nil, err
	}
	return l, &Result{Snaps: snaps, Maps: setup.Maps}, nil
}

// Run replays the log strictly: the world is rebuilt from the log's
// provenance, the Driver is the sole nondeterminism source, and every
// re-observed decision is checked. A non-nil Result.Divergence means
// the replay stopped conforming; err is reserved for environmental
// failures (the scenario cannot even be built).
func Run(l *Log) (*Result, error) {
	return runWith(l, true)
}

func runWith(l *Log, strict bool) (*Result, error) {
	if l.Scenario == ManagedScenario {
		return runManaged(l, strict)
	}
	setup, err := scenario.Build(l.Scenario, options(l))
	if err != nil {
		return nil, err
	}
	d := NewDriver(l, strict)
	setup.World.SetInjector(d)
	if strict {
		setup.World.SetRecorder(d)
	}
	setup.Run(0)
	snaps, herr := harvest(l, setup)
	d.Finish()
	if herr != nil {
		// A diverged or perturbed replay may legitimately produce no
		// snaps (e.g. a deadlock that never deadlocked); report that
		// outcome, not the harvest error.
		if dv := d.Divergence(); dv != nil || !strict {
			return &Result{Maps: setup.Maps, Divergence: dv}, nil
		}
		return nil, herr
	}
	return &Result{Snaps: snaps, Maps: setup.Maps, Divergence: d.Divergence()}, nil
}

// PetShop workload parameters, shared by the fault campaign's managed
// trials and managed replay so both build the identical world.
const (
	PetShopWorkers  = 2
	PetShopRequests = 40
	petShopSeed     = 88
)

// BuildPetShop builds the managed-runtime PetShop world: an
// instrumented module on a fresh single-machine world, with
// PetShopWorkers worker threads started and nothing executed.
func BuildPetShop() (*mvm.VM, []*mvm.MThread, *module.MapFile, error) {
	im, mf, err := mvm.Instrument(workload.PetShopModule(), 0)
	if err != nil {
		return nil, nil, nil, err
	}
	args := make([][]int64, PetShopWorkers)
	for i := range args {
		args[i] = []int64{PetShopRequests}
	}
	v, threads, err := workload.LaunchManaged(im, mvm.RuntimeConfig{SnapOnUncaught: true},
		petShopSeed, "petshop-host", "petshop", "worker", args)
	if err != nil {
		return nil, nil, nil, err
	}
	return v, threads, mf, nil
}

func runManaged(l *Log, strict bool) (*Result, error) {
	v, threads, mf, err := BuildPetShop()
	if err != nil {
		return nil, err
	}
	d := NewDriver(l, strict)
	v.OnQuantum = d.ManagedOnQuantum
	v.Run(1<<30, mvm.AllDone(threads))
	d.Finish()
	return &Result{
		Snaps:      v.Runtime().Snaps(),
		Maps:       []*module.MapFile{mf},
		Divergence: d.Divergence(),
	}, nil
}

// Verify replays l strictly and asserts the replayed harvest is
// byte-identical (nondet sections excluded) to the original snaps,
// positionally. Any mismatch lands in Result.Divergence; Identical is
// set only on a full match with zero divergence.
func Verify(l *Log, originals []*snap.Snap) (*Result, error) {
	res, err := Run(l)
	if err != nil {
		return nil, err
	}
	if res.Divergence != nil {
		return res, nil
	}
	if len(res.Snaps) != len(originals) {
		res.Divergence = &Divergence{
			Kind: "harvest-mismatch",
			Want: fmt.Sprintf("%d snaps", len(originals)),
			Got:  fmt.Sprintf("%d snaps", len(res.Snaps)),
		}
		return res, nil
	}
	for i := range originals {
		want, err := StrippedBytes(originals[i])
		if err != nil {
			return nil, err
		}
		got, err := StrippedBytes(res.Snaps[i])
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(want, got) {
			res.Divergence = &Divergence{
				Seq:  i,
				Kind: "snap-mismatch",
				Want: fmt.Sprintf("%s/%s %d bytes", originals[i].Process, originals[i].Reason, len(want)),
				Got:  fmt.Sprintf("%s/%s %d bytes", res.Snaps[i].Process, res.Snaps[i].Reason, len(got)),
			}
			return res, nil
		}
	}
	res.Identical = true
	return res, nil
}
