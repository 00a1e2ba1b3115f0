package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
)

// TrialReport is one trial's row in the campaign report. Every field
// is a pure function of the campaign seed — no clocks, no addresses,
// no map-ordered output — so the whole report is byte-reproducible.
type TrialReport struct {
	Index    int    `json:"index"`
	Scenario string `json:"scenario"`
	Kind     string `json:"kind"`
	SubSeed  int64  `json:"subSeed"`
	// Planned is the fault schedule drawn from the sub-seed; Fired is
	// what actually landed (a planned signal may find no eligible
	// victim).
	Planned []string `json:"planned"`
	Fired   []string `json:"fired,omitempty"`
	// Snaps/Events count the harvest; Truncated reports wrapped or
	// abruptly-lost history in any thread.
	Snaps     int  `json:"snaps"`
	Events    int  `json:"events"`
	Truncated bool `json:"truncated,omitempty"`
	// FaultLines are the resolved faulting (or last-executed)
	// source positions, sorted.
	FaultLines []string    `json:"faultLines,omitempty"`
	Violations []Violation `json:"violations,omitempty"`
	// Replayed reports that the trial's recording re-executed to a
	// byte-identical harvest (campaigns with Record on);
	// ReplayDivergence carries the machine-readable report when it
	// did not.
	Replayed         bool   `json:"replayed,omitempty"`
	ReplayDivergence string `json:"replayDivergence,omitempty"`
	// Repro reruns exactly this trial's campaign slice.
	Repro string `json:"repro"`
}

// Report is a whole campaign's deterministic result.
type Report struct {
	Version    int           `json:"version"`
	Seed       int64         `json:"seed"`
	Kinds      []string      `json:"kinds"`
	Scenarios  []string      `json:"scenarios,omitempty"`
	Trials     []TrialReport `json:"trials"`
	Violations int           `json:"violations"`
	Repro      string        `json:"repro"`
}

// Repro builds the machine-readable repro line for a seed and kind
// set — the line committed next to every regression snap.
func Repro(seed int64, kinds, scenarios []string) string {
	line := fmt.Sprintf("tbfault run -seed %d -kinds %s", seed, strings.Join(kinds, ","))
	if len(scenarios) > 0 {
		line += " -scenarios " + strings.Join(scenarios, ",")
	}
	return line
}

// Marshal renders the report as stable, indented JSON.
func (r *Report) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	return buf.Bytes(), nil
}
