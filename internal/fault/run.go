package fault

import (
	"fmt"
	"math/rand"

	"traceback/internal/module"
	"traceback/internal/mvm"
	"traceback/internal/recon"
	"traceback/internal/replay"
	"traceback/internal/scenario"
	"traceback/internal/snap"
)

// baselineFor measures (and caches) the uninjected span of a
// scenario under a config class, so fault times land inside it.
func (c *Campaign) baselineFor(scen string, opts scenario.Options) (baseline, error) {
	key := scen
	if opts.Config != nil {
		key += "/wrap"
	}
	if bl, ok := c.spans[key]; ok {
		return bl, nil
	}
	setup, err := scenario.Build(scen, opts)
	if err != nil {
		return baseline{}, err
	}
	ct := &counter{}
	setup.World.SetInjector(ct)
	setup.Run(0)
	bl := baseline{quanta: ct.quanta, rpcCalls: ct.calls}
	c.spans[key] = bl
	return bl, nil
}

// Artifact is the evidence bundle of one violating trial: the snaps
// and mapfiles to commit as a regression case, plus the repro line.
type Artifact struct {
	TrialIndex int
	Scenario   string
	Kind       string
	Snaps      []*snap.Snap
	Maps       []*module.MapFile
	Repro      string
}

// runTrial executes one (kind, scenario) trial under its sub-seed and
// returns the report row plus its harvest.
func (c *Campaign) runTrial(idx int, kind, scen string, sub int64) (*TrialReport, []*snap.Snap, []*module.MapFile, error) {
	if kind == KindManaged {
		return c.runManaged(idx, sub)
	}
	opts := scenario.Options{}
	if kind == KindWrap {
		// The tiny-buffer configuration: small enough that the
		// cross-machine server wraps its buffer several times before
		// faulting, exercising the committed-sub-buffer recovery path.
		// Shared with replay so Wrap recordings rebuild the same world.
		opts = replay.WrapOptions()
	}
	bl, err := c.baselineFor(scen, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	setup, err := scenario.Build(scen, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	roles := setup.Roles()
	rng := rand.New(rand.NewSource(sub))
	p := buildPlan(kind, roles, bl, rng)
	in := &injector{c: c, setup: setup, p: p}
	setup.World.SetInjector(in)
	var rec *replay.Recorder
	if c.cfg.Record {
		rec = replay.NewRecorder(0)
		setup.World.SetRecorder(rec)
	}
	c.met.trials.Inc()
	setup.Run(0)

	// Harvest: the service heartbeat (hang detection), then policy
	// snaps from each runtime plus a post-mortem pull from every
	// process — the collect path a fleet agent runs after the
	// incident. The post-mortems matter beyond kill -9: cross-machine
	// causality checks need each peer's final SYNC history, not just
	// the mid-flight exception snaps. Shared with replay so a
	// replayed trial's harvest is positionally comparable.
	snaps := replay.HarvestTrial(setup)
	wraps := 0
	for _, role := range roles {
		wraps += setup.Runtimes[role].Wraps()
	}
	c.met.snaps.Add(uint64(len(snaps)))

	tr := &TrialReport{
		Index:    idx,
		Scenario: scen,
		Kind:     kind,
		SubSeed:  sub,
		Planned:  p.schedule,
		Fired:    in.fired,
		Snaps:    len(snaps),
	}
	ms := recon.NewMapSet(setup.Maps...)
	c.checkTrial(tr, snaps, ms, wraps)
	if rec != nil {
		c.replayVerify(tr, rec.Log(scen, kind == KindWrap, true), snaps)
	}
	return tr, snaps, setup.Maps, nil
}

// replayVerify re-executes a recorded trial with the log as the sole
// nondeterminism source and holds the replayed harvest to
// byte-identity with the original — the replay-identical invariant.
// On success the harvest is stamped with its recording so committed
// evidence replays standalone.
func (c *Campaign) replayVerify(tr *TrialReport, l *replay.Log, snaps []*snap.Snap) {
	violate := func(detail string) {
		tr.Violations = append(tr.Violations, Violation{Invariant: InvReplay, Detail: detail})
		c.met.violations.Inc()
		c.rec.Record(0, "fault-violation", InvReplay+": "+detail)
	}
	c.met.replays.Inc()
	res, err := replay.Verify(l, snaps)
	if err != nil {
		c.met.replayDiv.Inc()
		violate(fmt.Sprintf("replay failed: %v", err))
		return
	}
	if res.Divergence != nil {
		c.met.replayDiv.Inc()
		tr.ReplayDivergence = res.Divergence.Error()
		violate(tr.ReplayDivergence)
		return
	}
	if !res.Identical {
		c.met.replayDiv.Inc()
		violate("replay produced a different harvest")
		return
	}
	tr.Replayed = true
	l.Attach(snaps)
}

// runManaged executes the managed-runtime trial: the PetShop workload
// under an asynchronous interrupt at a seeded quantum — the managed
// analog of a signal storm, snapped by the uncaught-exception policy.
// The world is built by replay.BuildPetShop so a recording of this
// trial replays against the identical world.
func (c *Campaign) runManaged(idx int, sub int64) (*TrialReport, []*snap.Snap, []*module.MapFile, error) {
	// Baseline span in managed quanta.
	key := replay.ManagedScenario
	bl, ok := c.spans[key]
	if !ok {
		v, threads, _, err := replay.BuildPetShop()
		if err != nil {
			return nil, nil, nil, err
		}
		var q uint64
		v.OnQuantum = func(*mvm.VM) { q++ }
		v.Run(1<<30, mvm.AllDone(threads))
		bl = baseline{quanta: q}
		c.spans[key] = bl
	}

	rng := rand.New(rand.NewSource(sub))
	at := window(rng, bl.quanta)
	victim := 1 + rng.Intn(replay.PetShopWorkers)
	v, threads, mf, err := replay.BuildPetShop()
	if err != nil {
		return nil, nil, nil, err
	}
	tr := &TrialReport{
		Index:    idx,
		Scenario: replay.ManagedScenario,
		Kind:     KindManaged,
		SubSeed:  sub,
		Planned:  []string{fmt.Sprintf("q=%d interrupt petshop t%d", at, victim)},
	}
	var rec *replay.Recorder
	if c.cfg.Record {
		rec = replay.NewRecorder(0)
	}
	var q uint64
	fired := false
	v.OnQuantum = func(v *mvm.VM) {
		q++
		if rec != nil {
			rec.ManagedQuantum(q, v.Machine)
		}
		if !fired && q >= at {
			fired = true
			v.Interrupt(victim, mvm.ExcInterrupted)
			if rec != nil {
				rec.ManagedInterrupt(q, victim, mvm.ExcInterrupted)
			}
			c.met.interrupts.Inc()
			c.met.injected.Inc()
			tr.Fired = append(tr.Fired, fmt.Sprintf("q=%d interrupt petshop t%d", q, victim))
			c.rec.Record(0, "fault-inject", tr.Fired[len(tr.Fired)-1])
		}
	}
	c.met.trials.Inc()
	v.Run(1<<30, mvm.AllDone(threads))

	snaps := v.Runtime().Snaps()
	c.met.snaps.Add(uint64(len(snaps)))
	tr.Snaps = len(snaps)
	maps := []*module.MapFile{mf}
	c.checkTrial(tr, snaps, recon.NewMapSet(maps...), 0)
	if rec != nil {
		c.replayVerify(tr, rec.Log(replay.ManagedScenario, false, true), snaps)
	}
	return tr, snaps, maps, nil
}
