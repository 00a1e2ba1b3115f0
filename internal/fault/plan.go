package fault

import (
	"fmt"
	"math/rand"
	"sort"

	"traceback/internal/scenario"
	"traceback/internal/vm"
)

// subseed derives trial i's sub-RNG seed from the campaign seed
// (splitmix-style, so adjacent trials and adjacent seeds decorrelate).
func subseed(seed int64, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	return int64(x)
}

// baseline is what an uninjected run of a scenario looks like: the
// number of scheduling quanta and RPC requests it spans. Fault times
// are drawn inside this window so they land while the workload is
// actually executing.
type baseline struct {
	quanta   uint64
	rpcCalls int
}

// counter measures a baseline.
type counter struct {
	quanta uint64
	calls  int
}

func (ct *counter) AtQuantum(m *vm.Machine) { ct.quanta++ }
func (ct *counter) AtRPC(from *vm.Thread, ep uint64, reply bool) vm.RPCFault {
	if !reply {
		ct.calls++
	}
	return vm.RPCFault{}
}

// window picks a quantum inside the live middle of the baseline span
// (5%–95%), avoiding startup and the post-fault idle tail.
func window(rng *rand.Rand, quanta uint64) uint64 {
	if quanta < 20 {
		return 1 + uint64(rng.Int63n(int64(quanta)+1))
	}
	lo := quanta / 20
	hi := quanta - lo
	return lo + uint64(rng.Int63n(int64(hi-lo)))
}

// signalPalette is what a storm throws: faults the runtime snaps on
// plus the app/interrupt signals it traces.
var signalPalette = []int{vm.SigInt, vm.SigIll, vm.SigFpe, vm.SigSegv, vm.SigApp}

// sigEvent is one planned async signal delivery.
type sigEvent struct {
	at   uint64
	proc string
	nth  int // victim: nth eligible thread, by sorted TID
	sig  int
}

// plan is a trial's fully-determined fault schedule.
type plan struct {
	schedule []string // deterministic description, one line per planned event

	killProc string
	killAt   uint64

	signals []sigEvent

	dropReq  map[int]bool
	dropRep  map[int]bool
	delayReq map[int]uint64
	dupReq   map[int]bool

	unloadProc   string
	unloadModule string
	unloadAt     uint64
}

// buildPlan draws a trial's schedule from its sub-RNG. Everything is
// derived from rng and the baseline — no clocks, no map iteration.
func buildPlan(kind string, roles []string, bl baseline, rng *rand.Rand) *plan {
	p := &plan{
		dropReq:  map[int]bool{},
		dropRep:  map[int]bool{},
		delayReq: map[int]uint64{},
		dupReq:   map[int]bool{},
	}
	note := func(format string, args ...any) {
		p.schedule = append(p.schedule, fmt.Sprintf(format, args...))
	}
	switch kind {
	case KindKill:
		p.killProc = roles[rng.Intn(len(roles))]
		p.killAt = window(rng, bl.quanta)
		note("q=%d kill -9 %s", p.killAt, p.killProc)
	case KindSignal:
		n := 2 + rng.Intn(3)
		for i := 0; i < n; i++ {
			ev := sigEvent{
				at:   window(rng, bl.quanta),
				proc: roles[rng.Intn(len(roles))],
				nth:  rng.Intn(4),
				sig:  signalPalette[rng.Intn(len(signalPalette))],
			}
			p.signals = append(p.signals, ev)
		}
		sort.Slice(p.signals, func(i, j int) bool { return p.signals[i].at < p.signals[j].at })
		for _, ev := range p.signals {
			note("q=%d signal %s -> %s thread#%d", ev.at, vm.SignalName(ev.sig), ev.proc, ev.nth)
		}
	case KindRPCDrop:
		k := 1 + rng.Intn(maxInt(bl.rpcCalls, 1))
		if rng.Intn(2) == 0 {
			p.dropReq[k] = true
			note("rpc req#%d drop", k)
		} else {
			p.dropRep[k] = true
			note("rpc rep#%d drop", k)
		}
	case KindRPCDelay:
		k := 1 + rng.Intn(maxInt(bl.rpcCalls, 1))
		// Longer than CrossMachineLatency so later sends overtake it.
		d := vm.CrossMachineLatency * uint64(2+rng.Intn(8))
		p.delayReq[k] = d
		note("rpc req#%d delay +%d cycles", k, d)
	case KindRPCDup:
		k := 1 + rng.Intn(maxInt(bl.rpcCalls, 1))
		p.dupReq[k] = true
		note("rpc req#%d duplicate", k)
	case KindUnload:
		// The cross-machine server faults inside strlib; pulling the
		// library out from under it mid-call is the classic
		// module-unload diagnosis scenario (paper §3.4).
		p.unloadProc = "petstore"
		p.unloadModule = "strlib"
		p.unloadAt = window(rng, bl.quanta)
		note("q=%d unload %s from %s", p.unloadAt, p.unloadModule, p.unloadProc)
	case KindWrap:
		note("tiny trace buffers (wrap stress); no injected event")
	}
	return p
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// injector executes a plan against a built scenario. It implements
// vm.Injector: AtQuantum fires kills, signals, and unloads by global
// quantum count; AtRPC perturbs the transport by request index.
type injector struct {
	c     *Campaign
	setup *scenario.Setup
	p     *plan

	quanta uint64
	sigIdx int
	req    int
	rep    int

	fired []string
}

func (in *injector) fire(format string, args ...any) {
	in.fired = append(in.fired, fmt.Sprintf(format, args...))
	in.c.met.injected.Inc()
	in.c.rec.Record(0, "fault-inject", in.fired[len(in.fired)-1])
}

func (in *injector) AtQuantum(m *vm.Machine) {
	in.quanta++
	q := in.quanta
	p := in.p
	if p.killProc != "" && q >= p.killAt {
		proc := in.setup.Procs[p.killProc]
		switch {
		case proc == nil || proc.Exited:
			p.killProc = ""
		case in.anyTraced(p.killProc):
			// Kill only once the victim has trace history: a kill
			// before the first probe leaves nothing to diagnose. Until
			// then the kill stays pending and retries next quantum.
			proc.Machine.KillProcess(proc)
			in.c.met.kills.Inc()
			in.fire("q=%d kill -9 %s", q, p.killProc)
			p.killProc = ""
		}
	}
	for in.sigIdx < len(p.signals) && q >= p.signals[in.sigIdx].at {
		ev := p.signals[in.sigIdx]
		proc := in.setup.Procs[ev.proc]
		if proc != nil && !proc.Exited {
			t := in.victim(ev.proc, ev.nth)
			if t == nil {
				// No traced, interruptible victim yet — keep the event
				// pending and retry at the next quantum while the
				// process lives.
				break
			}
			if t.Proc.Machine.InjectSignal(t, ev.sig) {
				in.c.met.signals.Inc()
				in.fire("q=%d signal %s -> %s t%d", q, vm.SignalName(ev.sig), ev.proc, t.TID)
			}
		}
		in.sigIdx++
	}
	if p.unloadProc != "" && q >= p.unloadAt {
		if proc := in.setup.Procs[p.unloadProc]; proc != nil && !proc.Exited {
			for _, lm := range proc.Modules {
				if lm.Mod.Name == p.unloadModule && !lm.Unloaded {
					proc.Unload(lm)
					in.c.met.unloads.Inc()
					in.fire("q=%d unload %s from %s", q, p.unloadModule, p.unloadProc)
					break
				}
			}
		}
		p.unloadProc = ""
	}
}

// victim picks the nth eligible thread of a role, by sorted TID, so
// the choice is stable under map ordering. Eligible means
// interruptible (runnable or sleeping) and already tracing: a signal
// delivered before a thread's first probe yields an exception snap
// with no history — chaos without evidence, which is not this
// campaign's point.
func (in *injector) victim(role string, nth int) *vm.Thread {
	proc := in.setup.Procs[role]
	if proc == nil || proc.Exited {
		return nil
	}
	rt := in.setup.Runtimes[role]
	var tids []int
	for tid, t := range proc.Threads {
		if (t.State == vm.Runnable || t.State == vm.Sleeping) && t.PC != 0 &&
			(rt == nil || rt.Traced(tid)) {
			tids = append(tids, tid)
		}
	}
	if len(tids) == 0 {
		return nil
	}
	sort.Ints(tids)
	return proc.Threads[tids[nth%len(tids)]]
}

// anyTraced reports whether any live thread of the role has trace
// history.
func (in *injector) anyTraced(role string) bool {
	proc := in.setup.Procs[role]
	rt := in.setup.Runtimes[role]
	if proc == nil {
		return false
	}
	if rt == nil {
		return true
	}
	for tid, t := range proc.Threads {
		if t.State != vm.Exited && rt.Traced(tid) {
			return true
		}
	}
	return false
}

func (in *injector) AtRPC(from *vm.Thread, ep uint64, reply bool) vm.RPCFault {
	p := in.p
	var f vm.RPCFault
	if reply {
		in.rep++
		if p.dropRep[in.rep] {
			f.Drop = true
			in.c.met.rpcFaults.Inc()
			in.fire("rpc rep#%d drop (ep %d)", in.rep, ep)
		}
		return f
	}
	in.req++
	k := in.req
	if p.dropReq[k] {
		f.Drop = true
		in.c.met.rpcFaults.Inc()
		in.fire("rpc req#%d drop (ep %d)", k, ep)
	}
	if d, ok := p.delayReq[k]; ok {
		f.Delay = d
		in.c.met.rpcFaults.Inc()
		in.fire("rpc req#%d delay +%d (ep %d)", k, d, ep)
	}
	if p.dupReq[k] {
		f.Duplicate = true
		in.c.met.rpcFaults.Inc()
		in.fire("rpc req#%d duplicate (ep %d)", k, ep)
	}
	return f
}
