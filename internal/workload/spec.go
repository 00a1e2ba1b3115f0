package workload

import (
	"fmt"

	"traceback/internal/core"
	"traceback/internal/minic"
	"traceback/internal/module"
	"traceback/internal/tbrt"
	"traceback/internal/vm"
)

// Every Table 1 run — plain, traced, ablated — is the one process of
// a world seeded specSeed on a machine named specHost.
const (
	specSeed = 42
	specHost = "bench"
)

// specResult is one Table 1 row, measured.
type specResult struct {
	Name         string
	Normal       uint64 // cycles uninstrumented
	TraceBack    uint64 // cycles instrumented
	Ratio        float64
	PaperRatio   float64
	CodeGrowth   float64
	ExitChecksum int

	mod *module.Module // the compiled kernel and its argument, for
	arg uint64         // the variants that re-instrument it
}

// runSpec measures program p at argument arg (p.Arg is the published
// scale): uninstrumented, then instrumented with the default options.
func runSpec(p SpecProgram, arg uint64) (specResult, error) {
	mod, err := minic.Compile(p.Name, p.Name+".c", p.Src)
	if err != nil {
		return specResult{}, err
	}
	plain, err := runNative(mod, nil, specSeed, specHost, arg)
	if err != nil {
		return specResult{}, err
	}
	r := specResult{Name: p.Name, Normal: plain.Cycles, PaperRatio: p.PaperRatio, ExitChecksum: plain.ExitCode, mod: mod, arg: arg}
	tb, stats, err := runTraced(r, core.Options{}, tbrt.Config{})
	if err != nil {
		return specResult{}, err
	}
	r.TraceBack, r.Ratio, r.CodeGrowth = tb.Cycles, float64(tb.Cycles)/float64(plain.Cycles), stats.CodeGrowth()
	return r, nil
}

// runTraced instruments row's kernel with opts and runs it at the
// row's argument under cfg. A run whose exit status differs from the
// row's uninstrumented one is an error: instrumentation must never
// change a result.
func runTraced(row specResult, opts core.Options, cfg tbrt.Config) (*vm.Process, core.Stats, error) {
	res, err := core.Instrument(row.mod, opts)
	if err != nil {
		return nil, core.Stats{}, err
	}
	p, err := runNative(res.Module, &cfg, specSeed, specHost, row.arg)
	if err == nil && p.ExitCode != row.ExitChecksum {
		err = fmt.Errorf("%s: instrumentation changed the result: %d vs %d", row.Name, row.ExitChecksum, p.ExitCode)
	}
	return p, res.Stats, err
}

// ablationResult compares an instrumentation variant on one kernel
// with its Table 1 row.
type ablationResult struct {
	Name, Variant string
	Normal        uint64 // the Table 1 row's uninstrumented cycles
	TraceBack     uint64 // cycles instrumented with the variant
	Ratio         float64
	Baseline      float64 // the Table 1 row's ratio
	Spills        int     // lightweight probes that spilled a register
}

// runAblation re-instruments base's kernel with opts; the
// uninstrumented run and the baseline ratio are base's.
func runAblation(base specResult, variant string, opts core.Options) (ablationResult, error) {
	tb, stats, err := runTraced(base, opts, tbrt.Config{})
	if err != nil {
		return ablationResult{}, fmt.Errorf("%s: %w", variant, err)
	}
	return ablationResult{
		Name:      base.Name,
		Variant:   variant,
		Normal:    base.Normal,
		TraceBack: tb.Cycles,
		Ratio:     float64(tb.Cycles) / float64(base.Normal),
		Baseline:  base.Ratio,
		Spills:    stats.Spills,
	}, nil
}
