// Package verify statically checks the invariants that TraceBack
// reconstruction assumes of its input. The paper's pitch — first-fault
// diagnosis from a single snap, no re-run — silently collapses when
// instrumentation and mapfile disagree, or when a served RPC skips the
// reply half of the SYNC sequence, so the contract between
// internal/core (which emits probes) and internal/recon (which decodes
// them and stitches machines) is proved here at instrument and load
// time rather than discovered as garbage traces in production.
//
// Verify runs over a module set. Every module gets the per-module
// passes; a set of two or more also gets the cross-module passes:
//
//   - structure: module/mapfile structural validation, CFG
//     construction (classifying typed cfg.BuildError kinds), probe
//     parsing, dominators, and helper-aware liveness. All later
//     passes consume its results.
//   - probe-coverage: exactly one probe per control-flow block that
//     needs one (DAG headers heavyweight, bit-carrying blocks
//     lightweight), none in unreachable code or jump-table slots, and
//     the mandatory header placements (function entry, call return
//     points, multiway targets, one per cycle) hold.
//   - probe-safety: probes never clobber a register that is live at
//     the probe's resume point, scavenged scratch registers are dead,
//     TLS-slot discipline holds (slot 60, TLSST only inside the
//     helper) and the DAG/TLS fixup tables are total over the probe
//     instructions, so load-time rebasing cannot miss one.
//   - map-consistency: every MapDAG block corresponds to exactly one
//     CFG block, DAG edges equal the in-DAG CFG successor edges, the
//     DAG ID table is total, and the checksum/base/count header ties
//     the mapfile to this exact module (the "mapfile drift" class).
//   - decodability: every probe word mines back as exactly one DAG
//     record — heavy words are well-formed DAG records with in-window
//     IDs (catching Invalid, Sentinel, 0x7F-trailer-shaped and
//     BadDAGID collisions, including across buffer wrap points),
//     light masks are single bits inside the path field matching the
//     mapfile, and maximal path enumeration proves bitset injectivity.
//   - rpc-endpoints (set): constant-propagate SysRPCCall/SysRPCRecv
//     endpoint ids and require every resolvable call endpoint to be
//     served by some module's recv. A resolvable endpoint nobody
//     serves is an error, because the VM raises RPCServerFault for it.
//   - sync-protocol (set): every path from a successful rpc-recv
//     reaches an rpc-reply (directly or via a call, possibly across
//     modules, to a function proven to always reply) before the
//     function returns, the process exits, or another recv overwrites
//     the pending request (paper §5.1).
package verify

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"traceback/internal/cfg"
	"traceback/internal/core"
	"traceback/internal/isa"
	"traceback/internal/module"
)

// Severity grades a diagnostic. Error-level findings mean
// reconstruction can produce wrong output; warnings mean degraded or
// suspicious-but-decodable output; info is provenance.
type Severity uint8

const (
	SevInfo Severity = iota
	SevWarn
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarn:
		return "warning"
	case SevError:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", uint8(s))
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON parses a severity name, so tbcheck's JSON output can
// be consumed by other tooling round-trip.
func (s *Severity) UnmarshalJSON(raw []byte) error {
	var name string
	if err := json.Unmarshal(raw, &name); err != nil {
		return err
	}
	switch name {
	case "info":
		*s = SevInfo
	case "warning":
		*s = SevWarn
	case "error":
		*s = SevError
	default:
		return fmt.Errorf("verify: unknown severity %q", name)
	}
	return nil
}

// Pass names, usable in Options.Passes.
const (
	PassStructure = "structure"
	PassCoverage  = "probe-coverage"
	PassSafety    = "probe-safety"
	PassMap       = "map-consistency"
	PassEncoding  = "decodability"
	PassRPC       = "rpc-endpoints"
	PassSync      = "sync-protocol"
)

// AllPasses lists every pass name in sorted order, for stable -passes
// usage text and JSON output. Execution order is fixed by Verify
// itself (structure always first), not by this list.
func AllPasses() []string {
	names := []string{PassStructure, PassCoverage, PassSafety, PassMap, PassEncoding, PassRPC, PassSync}
	sort.Strings(names)
	return names
}

// Diagnostic is one finding. Instr and DAG are -1 when the finding is
// not tied to an instruction or DAG; File/Line are the source position
// of Instr when the module's line table covers it. Module is set only
// when a set of two or more modules is verified, where diagnostics
// from several modules mix in one result and need attribution;
// single-module output leaves it empty.
type Diagnostic struct {
	Pass     string   `json:"pass"`
	Severity Severity `json:"severity"`
	Module   string   `json:"module,omitempty"`
	Func     string   `json:"func,omitempty"`
	DAG      int      `json:"dag"`
	Instr    int      `json:"instr"`
	File     string   `json:"file,omitempty"`
	Line     uint32   `json:"line,omitempty"`
	Msg      string   `json:"msg"`
}

// String renders the diagnostic in file:line form.
func (d Diagnostic) String() string {
	pos := ""
	if d.File != "" {
		pos = fmt.Sprintf("%s:%d: ", d.File, d.Line)
	}
	var parts []string
	if d.Module != "" {
		parts = append(parts, "module "+d.Module)
	}
	if d.Func != "" {
		parts = append(parts, "func "+d.Func)
	}
	if d.Instr >= 0 {
		parts = append(parts, fmt.Sprintf("instr %d", d.Instr))
	}
	loc := ""
	if len(parts) > 0 {
		loc = " (" + strings.Join(parts, ", ") + ")"
	}
	return fmt.Sprintf("%s%s: [%s] %s%s", pos, d.Severity, d.Pass, d.Msg, loc)
}

// Result is the outcome of one Verify run. Modules names the inputs in
// order (Input.Path, else the module's name).
type Result struct {
	Modules  []string     `json:"modules"`
	Diags    []Diagnostic `json:"diags"`
	NumError int          `json:"errors"`
	NumWarn  int          `json:"warnings"`
	NumInfo  int          `json:"infos"`
}

func (r *Result) add(d Diagnostic) {
	r.Diags = append(r.Diags, d)
	switch d.Severity {
	case SevError:
		r.NumError++
	case SevWarn:
		r.NumWarn++
	default:
		r.NumInfo++
	}
}

// Ok reports whether the run produced no error-level diagnostics.
func (r *Result) Ok() bool { return r.NumError == 0 }

// HasError reports whether the named pass produced an error.
func (r *Result) HasError(pass string) bool {
	for _, d := range r.Diags {
		if d.Pass == pass && d.Severity == SevError {
			return true
		}
	}
	return false
}

// WriteText prints one diagnostic per line.
func (r *Result) WriteText(w io.Writer) error {
	for _, d := range r.Diags {
		if _, err := fmt.Fprintln(w, d); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON prints the whole result as one JSON object.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r)
}

// DefaultMaxPaths bounds the decodability pass's per-DAG maximal-path
// enumeration. DAGs are small by construction (at most NumPathBits
// probe-carrying blocks), so real modules stay far below this.
const DefaultMaxPaths = 4096

// Options tune a Verify run.
type Options struct {
	// MaxPaths caps the decodability pass's path enumeration per DAG;
	// 0 means DefaultMaxPaths. Exceeding the cap degrades the pass to
	// a warning, never a false error.
	MaxPaths int
	// Passes selects which passes run (structure always runs); nil
	// means all.
	Passes []string
}

func (o Options) enabled(pass string) bool {
	if len(o.Passes) == 0 {
		return true
	}
	for _, p := range o.Passes {
		if p == pass {
			return true
		}
	}
	return false
}

// Input is one module under verification. Map, when set, is its
// mapfile. Path, when set, names the input in Result.Modules and in
// diagnostics (e.g. the file it was read from) instead of the
// module's name. An Input with a Map and no Module checks the
// mapfile's structure alone.
type Input struct {
	Module *module.Module
	Map    *module.MapFile
	Path   string
}

func (in Input) name() string {
	switch {
	case in.Path != "":
		return in.Path
	case in.Module != nil:
		return in.Module.Name
	case in.Map != nil:
		return in.Map.ModuleName
	}
	return "<nil>"
}

// Verify runs the per-module passes over every input and, when the set
// holds two or more inputs, the cross-module passes over all of them.
// A module without a mapfile skips map-consistency and the map-driven
// halves of coverage/decodability (noted at info level). Verify never
// panics on structurally valid inputs: malformed inputs produce error
// diagnostics instead, and a module too broken for the per-module
// passes takes no part in the cross-module ones.
func Verify(inputs []Input, opts Options) *Result {
	if opts.MaxPaths <= 0 {
		opts.MaxPaths = DefaultMaxPaths
	}
	res := &Result{}
	set := &moduleSet{res: res}
	for _, in := range inputs {
		ctx := &context{m: in.Module, mf: in.Map, opts: opts, res: res}
		res.Modules = append(res.Modules, in.name())
		if len(inputs) > 1 {
			ctx.name = in.name()
		}
		ctx.verify()
		set.mods = append(set.mods, ctx)
	}
	if len(inputs) > 1 {
		set.verify(opts)
	}
	return res
}

// verify runs the per-module passes.
func (ctx *context) verify() {
	if ctx.m == nil {
		ctx.mapOnly()
		return
	}
	if !ctx.structure() {
		return
	}
	if ctx.mf != nil && ctx.mf.Managed {
		// Bytecode instrumentation (paper §2.4): probes live in the
		// managed VM's code stream, not in this module's native code,
		// so the native-probe passes do not apply. Structural mapfile
		// validation already ran.
		ctx.infof(PassStructure, "managed mapfile: native probe passes skipped")
		return
	}
	if ctx.opts.enabled(PassCoverage) {
		ctx.coverage()
	}
	if ctx.opts.enabled(PassSafety) {
		ctx.safety()
	}
	if ctx.mf != nil && ctx.opts.enabled(PassMap) {
		ctx.mapConsistency()
	}
	if ctx.opts.enabled(PassEncoding) {
		ctx.encoding()
	}
}

// mapOnly checks an input that carries no module: its mapfile, if
// any, can only be validated structurally.
func (ctx *context) mapOnly() {
	if ctx.mf == nil {
		ctx.errorf(PassStructure, -1, -1, "no module to verify")
	} else if err := ctx.mf.Validate(); err != nil {
		ctx.errorf(PassStructure, -1, -1, "mapfile invalid: %v", err)
	} else {
		ctx.infof(PassStructure, "mapfile structurally valid (no module given: probe and consistency passes skipped)")
	}
}

// blockRef locates a mapfile block: DAG index (into mf.DAGs) and
// block index within that DAG.
type blockRef struct {
	dag, idx int
}

// fnInfo is the per-function analysis state the passes share, built
// once by the structure pass.
type fnInfo struct {
	fn  module.Func
	g   *cfg.Graph
	dom *cfg.DomTree // also answers reachability from the entry
	// liveIn/liveOut use the helper-aware effect: a CALL to the probe
	// helper clobbers only RV (+SP transiently), not the full
	// caller-saved set, so probe safety is judged against what the
	// helper really does.
	liveIn, liveOut []cfg.RegSet
	// probes maps block Start -> the probe parsed at that block's
	// head (blocks without probes are absent).
	probes map[uint32]*probeInfo
}

// context carries one module through a Verify run.
type context struct {
	m    *module.Module
	mf   *module.MapFile // nil when absent or structurally invalid
	opts Options
	res  *Result
	name string // set in Diagnostic.Module; empty for a lone module

	helper    module.Func
	hasHelper bool
	effect    func(isa.Instr) (uses, defs cfg.RegSet)
	funcs     []*fnInfo
	// place maps an instrumented-code block Start to its mapfile
	// location. Occupancy conflicts are diagnosed by map-consistency.
	place map[uint32]blockRef

	// RPC syscall sites, collected for the cross-module passes.
	calls, recvs, replies []rpcSite
}

func (ctx *context) report(d Diagnostic) {
	d.Module = ctx.name
	if d.Instr >= 0 {
		idx := uint32(d.Instr)
		if d.File == "" {
			if file, line, ok := ctx.m.LineFor(idx); ok {
				d.File, d.Line = file, line
			}
		}
		if d.Func == "" {
			if f, ok := ctx.m.FindFunc(idx); ok {
				d.Func = f.Name
			}
		}
	}
	ctx.res.add(d)
}

func (ctx *context) errorf(pass string, dag, instr int, format string, a ...any) {
	ctx.report(Diagnostic{Pass: pass, Severity: SevError, DAG: dag, Instr: instr,
		Msg: fmt.Sprintf(format, a...)})
}

func (ctx *context) warnf(pass string, dag, instr int, format string, a ...any) {
	ctx.report(Diagnostic{Pass: pass, Severity: SevWarn, DAG: dag, Instr: instr,
		Msg: fmt.Sprintf(format, a...)})
}

func (ctx *context) infof(pass string, format string, a ...any) {
	ctx.report(Diagnostic{Pass: pass, Severity: SevInfo, DAG: -1, Instr: -1,
		Msg: fmt.Sprintf(format, a...)})
}

// structure validates the raw inputs and builds the shared analysis
// state. It returns false when the module is too broken for any later
// pass to say something meaningful.
func (ctx *context) structure() bool {
	m := ctx.m
	if err := m.Validate(); err != nil {
		ctx.errorf(PassStructure, -1, -1, "module invalid: %v", err)
		return false
	}
	if !m.Instrumented {
		ctx.errorf(PassStructure, -1, -1, "module is not instrumented")
		return false
	}
	if ctx.mf != nil {
		if err := ctx.mf.Validate(); err != nil {
			ctx.errorf(PassMap, -1, -1, "mapfile invalid: %v", err)
			// Keep going in module-only mode: the probe-level passes
			// do not need the map.
			ctx.mf = nil
		}
	} else {
		ctx.infof(PassStructure, "no mapfile: map-consistency and map-driven checks skipped")
	}
	if ctx.mf != nil && ctx.mf.Managed {
		return true
	}

	ctx.helper, ctx.hasHelper = m.FuncByName(core.HelperName)
	if !ctx.hasHelper {
		ctx.errorf(PassStructure, -1, -1,
			"probe helper %s missing from the function table", core.HelperName)
		return false
	}

	ctx.effect = ctx.helperAwareEffect()
	for _, fn := range m.Funcs {
		if fn.Name == core.HelperName && fn.Entry == ctx.helper.Entry {
			continue
		}
		g, err := cfg.Build(m.Code, fn)
		if err != nil {
			ctx.reportBuildError(fn, err)
			continue
		}
		fi := &fnInfo{fn: fn, g: g, dom: g.Dominators()}
		fi.liveIn, fi.liveOut = g.LivenessFunc(ctx.effect)
		ctx.parseProbes(fi)
		ctx.funcs = append(ctx.funcs, fi)
	}

	if ctx.mf != nil {
		ctx.place = make(map[uint32]blockRef)
		for di := range ctx.mf.DAGs {
			d := &ctx.mf.DAGs[di]
			for bi := range d.Blocks {
				s := d.Blocks[bi].Start
				if _, dup := ctx.place[s]; !dup {
					ctx.place[s] = blockRef{dag: di, idx: bi}
				}
			}
		}
	}
	return true
}

// reportBuildError classifies a cfg.Build failure so downstream
// tooling can distinguish, say, fallthrough-off-end (a codegen or
// relayout bug) from an escaping branch (corrupt fixups).
func (ctx *context) reportBuildError(fn module.Func, err error) {
	if be, ok := err.(*cfg.BuildError); ok {
		ctx.report(Diagnostic{Pass: PassStructure, Severity: SevError,
			Func: fn.Name, DAG: -1, Instr: int(be.Instr),
			Msg: fmt.Sprintf("CFG construction failed (%s): %v", be.Kind, err)})
		return
	}
	ctx.report(Diagnostic{Pass: PassStructure, Severity: SevError,
		Func: fn.Name, DAG: -1, Instr: -1,
		Msg: fmt.Sprintf("CFG construction failed: %v", err)})
}

// helperAwareEffect is cfg.InstrEffect refined with the probe
// helper's real register footprint: it preserves everything except RV
// (the buffer pointer it returns) and SP (transiently, restored).
func (ctx *context) helperAwareEffect() func(isa.Instr) (uses, defs cfg.RegSet) {
	entry := ctx.helper.Entry
	return func(in isa.Instr) (uses, defs cfg.RegSet) {
		if in.Op == isa.CALL && uint32(in.Imm) == entry {
			var u, d cfg.RegSet
			return u.Add(isa.SP), d.Add(isa.RV).Add(isa.SP)
		}
		return cfg.InstrEffect(in)
	}
}

// funcContaining returns the analyzed function covering instruction
// index idx.
func (ctx *context) funcContaining(idx uint32) (*fnInfo, bool) {
	for _, fi := range ctx.funcs {
		if idx >= fi.fn.Entry && idx < fi.fn.End {
			return fi, true
		}
	}
	return nil, false
}

// sortedProbeStarts returns fi's probe block starts in address order,
// for deterministic diagnostics.
func sortedProbeStarts(fi *fnInfo) []uint32 {
	starts := make([]uint32, 0, len(fi.probes))
	for s := range fi.probes {
		starts = append(starts, s)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	return starts
}
