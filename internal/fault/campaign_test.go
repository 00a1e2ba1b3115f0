package fault

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"traceback/internal/telemetry"
)

// TestCampaignEndToEnd runs the campaigns `make ci` gates on — every
// kind under seed 1, the VM kinds again under seed 2, recording on as
// the CLI has it — and checks the headline contract: every requested
// kind exercised end to end, snaps harvested and reconstructed, every
// trial's recording replay-verified, no invariant violations. On
// failure it logs the repro line; `<repro> -regress <dir>` rewrites
// the evidence bundles deterministically.
func TestCampaignEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		seed  int64
		kinds []string
	}{
		{1, []string{"all"}},
		{2, []string{KindKill, KindSignal, "rpc", KindUnload, KindWrap}},
	} {
		t.Run(fmt.Sprintf("seed=%d", tc.seed), func(t *testing.T) {
			reg := telemetry.New()
			c, err := New(Config{Seed: tc.seed, Kinds: tc.kinds, Record: true, Telemetry: reg})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if t.Failed() {
					t.Logf("repro: %s (add -regress <dir> for the evidence bundles)", rep.Repro)
				}
			}()
			checkCampaign(t, rep, reg)
		})
	}
}

func checkCampaign(t *testing.T, rep *Report, reg *telemetry.Registry) {
	t.Helper()
	kinds := map[string]bool{}
	for _, tr := range rep.Trials {
		kinds[tr.Kind] = true
		if tr.Snaps == 0 {
			t.Errorf("trial %d (%s/%s): no snaps", tr.Index, tr.Kind, tr.Scenario)
		}
		if tr.Events == 0 {
			t.Errorf("trial %d (%s/%s): no reconstructed events", tr.Index, tr.Kind, tr.Scenario)
		}
		if len(tr.FaultLines) == 0 {
			t.Errorf("trial %d (%s/%s): no fault line identified", tr.Index, tr.Kind, tr.Scenario)
		}
		if len(tr.Planned) == 0 {
			t.Errorf("trial %d (%s/%s): empty schedule", tr.Index, tr.Kind, tr.Scenario)
		}
		for _, v := range tr.Violations {
			t.Errorf("trial %d (%s/%s): %s: %s", tr.Index, tr.Kind, tr.Scenario, v.Invariant, v.Detail)
		}
		if !tr.Replayed {
			t.Errorf("trial %d (%s/%s): recording did not replay-verify (%s)",
				tr.Index, tr.Kind, tr.Scenario, tr.ReplayDivergence)
		}
	}
	if len(kinds) != len(rep.Kinds) {
		t.Errorf("%d of %d kind(s) ran a trial: %v", len(kinds), len(rep.Kinds), kinds)
	}
	if rep.Violations != 0 {
		t.Errorf("campaign reports %d violation(s)", rep.Violations)
	}
	if !strings.Contains(rep.Repro, fmt.Sprintf("tbfault run -seed %d ", rep.Seed)) {
		t.Errorf("repro line %q lacks the seed", rep.Repro)
	}

	// fault_* telemetry is live on the shared registry, asserted by
	// name exactly like the coll_* counters are in internal/collect:
	// a kind's counter is nonzero exactly when the kind ran.
	counters := map[string]bool{
		"fault_trials_total":             true,
		"fault_injected_total":           true,
		"fault_kills_total":              kinds[KindKill],
		"fault_signals_total":            kinds[KindSignal],
		"fault_rpc_total":                kinds[KindRPCDrop],
		"fault_unloads_total":            kinds[KindUnload],
		"fault_managed_interrupts_total": kinds[KindManaged],
		"fault_snaps_total":              true,
		"fault_replays_total":            true,
		"fault_violations_total":         false,
		"fault_replay_divergence_total":  false,
	}
	for name, nonzero := range counters {
		v := reg.Counter(name, "").Load()
		if nonzero && v == 0 {
			t.Errorf("counter %s = 0, want > 0", name)
		}
		if !nonzero && v != 0 {
			t.Errorf("counter %s = %d, want 0", name, v)
		}
	}
}

// TestCampaignDeterminism: the same seed yields a byte-identical
// report; a different seed yields a different fault schedule. This is
// the repro contract regression snaps rely on.
func TestCampaignDeterminism(t *testing.T) {
	run := func(seed int64) []byte {
		c, err := New(Config{Seed: seed, Kinds: []string{KindKill, KindSignal, "rpc"}})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		b, err := rep.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a1 := run(7)
	a2 := run(7)
	if !bytes.Equal(a1, a2) {
		t.Errorf("same seed, different reports:\n--- run 1\n%s\n--- run 2\n%s", a1, a2)
	}
	b := run(8)
	if bytes.Equal(a1, b) {
		t.Error("different seeds produced identical fault schedules")
	}
}

// TestKindExpansion covers the CLI kind grammar.
func TestKindExpansion(t *testing.T) {
	all, err := ExpandKinds(nil)
	if err != nil || len(all) != len(AllKinds) {
		t.Fatalf("ExpandKinds(nil) = %v, %v", all, err)
	}
	rpc, err := ExpandKinds([]string{"rpc", "kill"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{KindKill, KindRPCDrop, KindRPCDelay, KindRPCDup}
	if len(rpc) != len(want) {
		t.Fatalf("ExpandKinds(rpc,kill) = %v, want %v", rpc, want)
	}
	for i := range want {
		if rpc[i] != want[i] {
			t.Fatalf("ExpandKinds(rpc,kill) = %v, want %v", rpc, want)
		}
	}
	if _, err := ExpandKinds([]string{"nope"}); err == nil {
		t.Error("unknown kind accepted")
	}
}
