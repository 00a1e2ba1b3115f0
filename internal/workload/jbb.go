package workload

import "traceback/internal/mvm"

// Table 3: SPECjbb — a server-side managed (Java) benchmark. Each
// warehouse is a managed thread running the TPC-C-flavored
// transaction mix (new-order, payment, order-status, delivery,
// stock-level) over in-memory arrays. Instrumentation overhead comes
// from line-boundary probes in pure bytecode execution, landing in
// the paper's 16–25% band — between the I/O-dominated web workloads
// (~5%) and native SPECint (~60%).

// JbbSystem describes one of Table 3's three platforms. The Mix knob
// varies the hot transaction's line density, standing in for the
// JIT/architecture differences that made the three systems' ratios
// differ (1.16 on Win to 1.25 on Sun).
type JbbSystem struct {
	Name string
	// Mix selects the transaction blend (0..2).
	Mix int
	// ProbeHCost/ProbeLCost model the platform's probe expense (TLS
	// and memory-system speed differ across Win/Lin/Sun).
	ProbeHCost uint64
	ProbeLCost uint64
	// PaperRatio1W/5W from Table 3.
	PaperRatio1W float64
	PaperRatio5W float64
}

// JbbSystems lists the paper's three systems.
var JbbSystems = []JbbSystem{
	{Name: "Win", Mix: 0, ProbeHCost: 6, ProbeLCost: 2, PaperRatio1W: 1.164, PaperRatio5W: 1.207},
	{Name: "Lin", Mix: 1, ProbeHCost: 7, ProbeLCost: 3, PaperRatio1W: 1.223, PaperRatio5W: 1.229},
	{Name: "Sun", Mix: 2, ProbeHCost: 8, ProbeLCost: 3, PaperRatio1W: 1.240, PaperRatio5W: 1.249},
}

// buildJbb assembles the managed warehouse program.
//
// Methods: newOrder, payment, stockLevel, warehouse (the per-thread
// transaction loop). Locals are indexed constants for readability.
func buildJbb(mix int) *mvm.Module {
	b := mvm.NewBuilder("SPECjbb", "Warehouse.java")

	// newOrder(whBase, count) -> value. Walks order lines updating
	// stock-like arrays.
	no := b.Method("newOrder", 2, 6) // wh, count, i, ref, acc, t
	no.Line(10).I(mvm.CONST, 256).I(mvm.NEWARR).I(mvm.STOREL, 3, 0)
	no.Line(11).I(mvm.CONST, 0).I(mvm.STOREL, 4, 0)
	no.Line(12).I(mvm.CONST, 0).I(mvm.STOREL, 2, 0)
	no.Label("loop")
	no.Line(13).I(mvm.LOADL, 2, 0).I(mvm.LOADL, 1, 0).I(mvm.CMPLT).Br(mvm.IFZ, "end")
	no.Line(14).
		I(mvm.LOADL, 3, 0).
		I(mvm.LOADL, 2, 0).I(mvm.CONST, 255).I(mvm.AND).
		I(mvm.LOADL, 0, 0).I(mvm.LOADL, 2, 0).I(mvm.MUL).I(mvm.CONST, 97).I(mvm.MOD).
		I(mvm.ASTORE)
	no.Line(15).
		I(mvm.LOADL, 4, 0).
		I(mvm.LOADL, 3, 0).I(mvm.LOADL, 2, 0).I(mvm.CONST, 255).I(mvm.AND).I(mvm.ALOAD).
		I(mvm.ADD).I(mvm.STOREL, 4, 0)
	no.Line(16).I(mvm.LOADL, 2, 0).I(mvm.CONST, 1).I(mvm.ADD).I(mvm.STOREL, 2, 0).Br(mvm.GOTO, "loop")
	no.Label("end")
	no.Line(17).I(mvm.LOADL, 4, 0).I(mvm.RET)
	no.Done()

	// payment(wh, amount) -> new balance, arithmetic-dense.
	pay := b.Method("payment", 2, 4)
	pay.Line(21).I(mvm.LOADL, 0, 0).I(mvm.LOADL, 1, 0).I(mvm.MUL).I(mvm.CONST, 10007).I(mvm.MOD).I(mvm.STOREL, 2, 0)
	pay.Line(22).I(mvm.LOADL, 2, 0).I(mvm.CONST, 3).I(mvm.MUL).I(mvm.CONST, 7).I(mvm.ADD).I(mvm.STOREL, 3, 0)
	pay.Line(23).I(mvm.LOADL, 3, 0).I(mvm.CONST, 100).I(mvm.MOD).Br(mvm.IFZ, "zero")
	pay.Line(24).I(mvm.LOADL, 3, 0).I(mvm.RET)
	pay.Label("zero")
	pay.Line(25).I(mvm.LOADL, 2, 0).I(mvm.RET)
	pay.Done()

	// stockLevel(wh, n): array-scan flavored.
	sl := b.Method("stockLevel", 2, 5)
	sl.Line(31).I(mvm.CONST, 128).I(mvm.NEWARR).I(mvm.STOREL, 2, 0)
	sl.Line(32).I(mvm.CONST, 0).I(mvm.STOREL, 3, 0)
	sl.Line(33).I(mvm.CONST, 0).I(mvm.STOREL, 4, 0)
	sl.Label("loop")
	sl.I(mvm.LOADL, 4, 0).I(mvm.CONST, 128).I(mvm.CMPLT).Br(mvm.IFZ, "end")
	sl.Line(34).
		I(mvm.LOADL, 3, 0).
		I(mvm.LOADL, 2, 0).I(mvm.LOADL, 4, 0).I(mvm.ALOAD).
		I(mvm.LOADL, 0, 0).I(mvm.ADD).I(mvm.ADD).I(mvm.STOREL, 3, 0)
	sl.Line(35).I(mvm.LOADL, 4, 0).I(mvm.CONST, 1).I(mvm.ADD).I(mvm.STOREL, 4, 0).Br(mvm.GOTO, "loop")
	sl.Label("end")
	sl.Line(36).I(mvm.LOADL, 3, 0).I(mvm.RET)
	sl.Done()

	// warehouse(id, txns) -> score: the transaction mix loop.
	wh := b.Method("warehouse", 2, 6)
	wh.Line(41).I(mvm.CONST, 0).I(mvm.STOREL, 2, 0) // score
	wh.Line(42).I(mvm.CONST, 0).I(mvm.STOREL, 3, 0) // t
	wh.Label("loop")
	wh.I(mvm.LOADL, 3, 0).I(mvm.LOADL, 1, 0).I(mvm.CMPLT).Br(mvm.IFZ, "end")
	// kind = (t*7 + id) % 4 (mix 0) or % 3 / with different blends.
	div := int32(4 - mix)
	if div < 2 {
		div = 2
	}
	wh.Line(43).I(mvm.LOADL, 3, 0).I(mvm.CONST, 7).I(mvm.MUL).I(mvm.LOADL, 0, 0).I(mvm.ADD).
		I(mvm.CONST, div).I(mvm.MOD).I(mvm.STOREL, 4, 0)
	wh.Line(44).I(mvm.LOADL, 4, 0).Br(mvm.IFZ, "tNew")
	wh.Line(45).I(mvm.LOADL, 4, 0).I(mvm.CONST, 1).I(mvm.CMPEQ).Br(mvm.IFNZ, "tPay")
	wh.Line(46).I(mvm.LOADL, 0, 0).I(mvm.CONST, 40).I(mvm.CALL, 2).I(mvm.STOREL, 5, 0).Br(mvm.GOTO, "score")
	wh.Label("tNew")
	wh.Line(47).I(mvm.LOADL, 0, 0).I(mvm.CONST, 24).I(mvm.CALL, 0).I(mvm.STOREL, 5, 0).Br(mvm.GOTO, "score")
	wh.Label("tPay")
	wh.Line(48).I(mvm.LOADL, 0, 0).I(mvm.LOADL, 3, 0).I(mvm.CALL, 1).I(mvm.STOREL, 5, 0)
	wh.Label("score")
	wh.Line(49).I(mvm.LOADL, 2, 0).I(mvm.LOADL, 5, 0).I(mvm.CONST, 1024).I(mvm.MOD).I(mvm.ADD).I(mvm.STOREL, 2, 0)
	wh.Line(50).I(mvm.LOADL, 3, 0).I(mvm.CONST, 1).I(mvm.ADD).I(mvm.STOREL, 3, 0).Br(mvm.GOTO, "loop")
	wh.Label("end")
	wh.Line(51).I(mvm.LOADL, 2, 0).I(mvm.RET)
	wh.Done()

	return b.MustBuild()
}

// JbbResult is one Table 3 row.
type JbbResult struct {
	System     string
	Warehouses int
	// Normal and TraceBack are throughput scores (transactions per
	// million cycles), computed from the runtime cycle counts
	// NormalCycles and TraceBackCycles.
	Normal, TraceBack             float64
	NormalCycles, TraceBackCycles uint64
	Ratio                         float64
	PaperRatio                    float64
}

// RunJbb measures one system/warehouse-count cell of Table 3.
func RunJbb(sys JbbSystem, warehouses, txnsPerWarehouse int) (JbbResult, error) {
	mod := buildJbb(sys.Mix)
	cfg := mvm.RuntimeConfig{
		ProbeHCost:     sys.ProbeHCost,
		ProbeLCost:     sys.ProbeLCost,
		MTProbePenalty: 2,
	}
	args := make([][]int64, warehouses)
	for i := range args {
		args[i] = []int64{int64(i + 1), int64(txnsPerWarehouse)}
	}
	plain, err := runManaged(mod, cfg, 55, sys.Name, "specjbb", "warehouse", args)
	if err != nil {
		return JbbResult{}, err
	}
	im, _, err := mvm.Instrument(mod, 0)
	if err != nil {
		return JbbResult{}, err
	}
	tb, err := runManaged(im, cfg, 55, sys.Name, "specjbb", "warehouse", args)
	if err != nil {
		return JbbResult{}, err
	}
	total := float64(warehouses * txnsPerWarehouse)
	normal := total / (float64(plain.Cycles) / 1e6)
	traced := total / (float64(tb.Cycles) / 1e6)
	paper := sys.PaperRatio1W
	if warehouses > 1 {
		paper = sys.PaperRatio5W
	}
	return JbbResult{
		System:          sys.Name,
		Warehouses:      warehouses,
		Normal:          normal,
		TraceBack:       traced,
		NormalCycles:    plain.Cycles,
		TraceBackCycles: tb.Cycles,
		Ratio:           normal / traced, // throughput ratio, as Table 3 reports
		PaperRatio:      paper,
	}, nil
}
