package workload

import "traceback/internal/mvm"

// The PetShop paragraph (paper §6): a managed (.NET-analog) web
// application under request load. Each request parses (bytecode
// work), performs a "database query" (disk I/O cycles), renders
// (bytecode work), and sends the page (network cycles). With device
// time dominating and only line-boundary probes in the managed code,
// the throughput drop lands near the paper's 1%.

// PetShopModule builds the PetShop managed module; replay.BuildPetShop
// instruments it for the fault campaign and managed replay.
func PetShopModule() *mvm.Module {
	b := mvm.NewBuilder("PetShop", "PetShop.java")

	// handle(id) -> bytes sent
	h := b.Method("handle", 1, 4)
	// parse: small hash loop
	h.Line(5).I(mvm.CONST, 0).I(mvm.STOREL, 1, 0)
	h.Line(6).I(mvm.CONST, 0).I(mvm.STOREL, 2, 0)
	h.Label("parse")
	h.I(mvm.LOADL, 2, 0).I(mvm.CONST, 12).I(mvm.CMPLT).Br(mvm.IFZ, "parsed")
	h.Line(7).I(mvm.LOADL, 1, 0).I(mvm.CONST, 31).I(mvm.MUL).I(mvm.LOADL, 0, 0).I(mvm.ADD).
		I(mvm.CONST, 65536).I(mvm.MOD).I(mvm.STOREL, 1, 0)
	h.Line(8).I(mvm.LOADL, 2, 0).I(mvm.CONST, 1).I(mvm.ADD).I(mvm.STOREL, 2, 0).Br(mvm.GOTO, "parse")
	h.Label("parsed")
	// db query: read product row (disk)
	h.Line(10).I(mvm.CONST, 4096).I(mvm.IOREAD).I(mvm.POP)
	// render: arithmetic over the "row"
	h.Line(11).I(mvm.LOADL, 1, 0).I(mvm.CONST, 97).I(mvm.MOD).I(mvm.CONST, 2048).I(mvm.ADD).I(mvm.STOREL, 3, 0)
	// send page
	h.Line(12).I(mvm.LOADL, 3, 0).I(mvm.NETSENDB).I(mvm.POP)
	h.Line(13).I(mvm.LOADL, 3, 0).I(mvm.RET)
	h.Done()

	// worker(n) -> bytes
	wkr := b.Method("worker", 1, 3)
	wkr.Line(20).I(mvm.CONST, 0).I(mvm.STOREL, 1, 0)
	wkr.Line(21).I(mvm.CONST, 0).I(mvm.STOREL, 2, 0)
	wkr.Label("loop")
	wkr.I(mvm.LOADL, 2, 0).I(mvm.LOADL, 0, 0).I(mvm.CMPLT).Br(mvm.IFZ, "end")
	wkr.Line(22).I(mvm.LOADL, 1, 0).I(mvm.LOADL, 2, 0).I(mvm.CALL, 0).I(mvm.ADD).I(mvm.STOREL, 1, 0)
	wkr.Line(23).I(mvm.LOADL, 2, 0).I(mvm.CONST, 1).I(mvm.ADD).I(mvm.STOREL, 2, 0).Br(mvm.GOTO, "loop")
	wkr.Label("end")
	wkr.Line(24).I(mvm.LOADL, 1, 0).I(mvm.RET)
	wkr.Done()
	return b.MustBuild()
}

// petShopResult compares request throughput.
type petShopResult struct {
	Normal, TraceBack uint64 // machine clock at the end of the load
	ReqPerSecNormal   float64
	ReqPerSecTB       float64
	Drop              float64 // fractional throughput reduction
}

// runPetShop measures the PetShop-like workload: petShopWorkers worker
// threads serving petShopRequests requests each.
func runPetShop() (petShopResult, error) {
	mod := PetShopModule()
	args := make([][]int64, petShopWorkers)
	for i := range args {
		args[i] = []int64{petShopRequests}
	}
	plain, err := runManaged(mod, mvm.RuntimeConfig{}, 88, "dell600sc", "petshop", "worker", args)
	if err != nil {
		return petShopResult{}, err
	}
	im, _, err := mvm.Instrument(mod, 0)
	if err != nil {
		return petShopResult{}, err
	}
	tb, err := runManaged(im, mvm.RuntimeConfig{}, 88, "dell600sc", "petshop", "worker", args)
	if err != nil {
		return petShopResult{}, err
	}
	r := petShopResult{Normal: plain.Machine.Clock(), TraceBack: tb.Machine.Clock()}
	reqPerSec := func(clock uint64) float64 {
		secs := float64(clock) / (cyclesPerMs * 1000)
		return float64(petShopWorkers*petShopRequests) / secs
	}
	r.ReqPerSecNormal, r.ReqPerSecTB = reqPerSec(r.Normal), reqPerSec(r.TraceBack)
	r.Drop = 1 - r.ReqPerSecTB/r.ReqPerSecNormal
	return r, nil
}
