package verify

import (
	"traceback/internal/telemetry"
)

// Metrics is the verification provenance counter set, registered under
// the verify_ prefix so tbinstr, tbrun, and the snap service all
// report the same names: how many Verify runs (one module or a module
// set each) there were, how many came back clean, and the diagnostic
// volume by severity.
type Metrics struct {
	Runs       *telemetry.Counter
	Clean      *telemetry.Counter
	Failed     *telemetry.Counter
	DiagErrors *telemetry.Counter
	DiagWarns  *telemetry.Counter
}

// NewMetrics registers (or re-binds) the verification counters on reg.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		Runs:       reg.Counter("verify_runs_total", "verification runs over a module or a module set"),
		Clean:      reg.Counter("verify_modules_clean_total", "verification runs with zero error-level diagnostics"),
		Failed:     reg.Counter("verify_modules_failed_total", "verification runs with at least one error-level diagnostic"),
		DiagErrors: reg.Counter("verify_diags_error_total", "error-level diagnostics emitted"),
		DiagWarns:  reg.Counter("verify_diags_warn_total", "warning-level diagnostics emitted"),
	}
}

// Observe records one Verify result.
func (mt *Metrics) Observe(res *Result) {
	mt.Runs.Inc()
	if res.Ok() {
		mt.Clean.Inc()
	} else {
		mt.Failed.Inc()
	}
	mt.DiagErrors.Add(uint64(res.NumError))
	mt.DiagWarns.Add(uint64(res.NumWarn))
}
