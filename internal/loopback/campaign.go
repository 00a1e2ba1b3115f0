package loopback

import (
	"fmt"

	"traceback/internal/archive"
	"traceback/internal/fault"
	"traceback/internal/recon"
	"traceback/internal/scenario"
	"traceback/internal/snap"
)

const (
	// CampaignSeed's kill of the quickstart app yields a signature the
	// uninjected scenarios never produce (StageCampaign asserts it).
	CampaignSeed = 3
	// Horizon is how many rate windows of steady background are staged.
	Horizon = 10
)

// Campaign is the seeded two-phase crash campaign the fleet triage
// gates stage: the example scenarios' snaps in every one of the
// Horizon newest rate windows (the steady background), then the snaps
// of one seeded tbfault kill trial in the newest window only (the
// injected regression). Snap times are the only clock and are
// synthetic, and each copy is a distinct content address — every
// staged snap journals a fresh occurrence — so whatever ingests Snaps
// must flag exactly Injected.
type Campaign struct {
	// Builts are the uninjected example scenarios.
	Builts []*scenario.Built
	// Maps resolves every mapfile the staged snaps need.
	Maps *recon.MapSet
	// Snaps is the staged fleet in upload order: background, then
	// injection.
	Snaps []*snap.Snap
	// Steady and Injected are the signature sets of the two phases;
	// Injected holds only campaign signatures the background lacks.
	Steady, Injected map[string]bool
}

// StageCampaign builds the campaign. It is fully deterministic.
func StageCampaign() (*Campaign, error) {
	builts, err := scenario.All()
	if err != nil {
		return nil, fmt.Errorf("building scenarios: %w", err)
	}
	camp, err := fault.New(fault.Config{
		Seed: CampaignSeed, Kinds: []string{fault.KindKill}, Scenarios: []string{"quickstart"},
	})
	if err != nil {
		return nil, fmt.Errorf("building campaign: %w", err)
	}
	_, faultSnaps, faultMaps, err := camp.Trial(fault.KindKill, "quickstart")
	if err != nil {
		return nil, fmt.Errorf("campaign trial: %w", err)
	}
	c := &Campaign{
		Builts: builts, Maps: scenario.MapSet(builts...),
		Steady: map[string]bool{}, Injected: map[string]bool{},
	}
	for _, mf := range faultMaps {
		c.Maps.Add(mf)
	}
	stage := func(s *snap.Snap, at uint64) string {
		cp := *s
		cp.Time = at
		c.Snaps = append(c.Snaps, &cp)
		return archive.SignSnap(&cp, c.Maps).ID
	}
	const W = archive.WindowWidth
	for win := uint64(0); win < Horizon; win++ {
		for _, b := range builts {
			for _, s := range b.Snaps {
				c.Steady[stage(s, win*W+W/4)] = true
			}
		}
	}
	for _, s := range faultSnaps {
		if id := stage(s, (Horizon-1)*W+W/2); !c.Steady[id] {
			c.Injected[id] = true
		}
	}
	if len(c.Injected) == 0 {
		return nil, fmt.Errorf("seed %d campaign signatures all collide with the baseline; the gates need a campaign-only signature", CampaignSeed)
	}
	return c, nil
}
