package fault

import (
	"hash/fnv"

	"traceback/internal/module"
	"traceback/internal/snap"
)

// seedFor derives a trial's sub-seed from the campaign seed and the
// trial's identity (kind, scenario) — not its index — so rerunning a
// single (kind, scenario) slice reproduces exactly the trial the
// full campaign ran: the repro line on a regression snap is faithful.
func seedFor(seed int64, kind, scen string) int64 {
	h := fnv.New64a()
	h.Write([]byte(kind))
	h.Write([]byte{'/'})
	h.Write([]byte(scen))
	return subseed(seed, int(h.Sum64()&0x7FFFFFFF))
}

// Run executes the campaign: every (kind, scenario) trial in
// canonical order. The returned report is a pure function of the seed.
func (c *Campaign) Run() (*Report, error) {
	rep := &Report{
		Version:   1,
		Seed:      c.cfg.Seed,
		Kinds:     c.cfg.Kinds,
		Scenarios: c.cfg.Scenarios,
		Repro:     Repro(c.cfg.Seed, c.cfg.Kinds, c.cfg.Scenarios),
	}
	idx := 0
	for _, kind := range c.cfg.Kinds {
		for _, scen := range scenariosFor(kind) {
			if !c.wantScenario(scen) {
				continue
			}
			sub := seedFor(c.cfg.Seed, kind, scen)
			tr, snaps, maps, err := c.runTrial(idx, kind, scen, sub)
			if err != nil {
				return nil, err
			}
			tr.Repro = Repro(c.cfg.Seed, []string{kind}, []string{scen})
			rep.Trials = append(rep.Trials, *tr)
			rep.Violations += len(tr.Violations)
			if len(tr.Violations) > 0 {
				c.artifacts = append(c.artifacts, Artifact{
					TrialIndex: idx, Scenario: scen, Kind: kind,
					Snaps: snaps, Maps: maps, Repro: tr.Repro,
				})
			}
			idx++
		}
	}
	return rep, nil
}

// Artifacts returns the evidence bundles of violating trials
// (populated during Run).
func (c *Campaign) Artifacts() []Artifact { return c.artifacts }

// Trial runs the single (kind, scenario) slice of the campaign — the
// unit a regression repro line names — and returns its report row
// and harvest. Because sub-seeds derive from (seed, kind, scenario)
// rather than trial position, the trial is byte-identical to the
// same slice inside a full campaign run.
func (c *Campaign) Trial(kind, scen string) (*TrialReport, []*snap.Snap, []*module.MapFile, error) {
	tr, snaps, maps, err := c.runTrial(0, kind, scen, seedFor(c.cfg.Seed, kind, scen))
	if err != nil {
		return nil, nil, nil, err
	}
	tr.Repro = Repro(c.cfg.Seed, []string{kind}, []string{scen})
	return tr, snaps, maps, nil
}
