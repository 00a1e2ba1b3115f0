package verify

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"traceback/internal/cfg"
	"traceback/internal/isa"
	"traceback/internal/module"
)

// moduleSet carries the cross-module passes over a set of two or more
// modules. They see only the functions the structure pass analyzed, so
// a module it rejected serves and calls nothing here.
type moduleSet struct {
	mods     []*context
	res      *Result
	repliers map[*fnInfo]bool
}

// rpcSite is one RPC syscall site: a SYS instruction whose endpoint
// argument has (maybe) been resolved by constant propagation.
type rpcSite struct {
	fn    *fnInfo
	instr uint32
	block int
	ep    int64
	known bool
}

func (set *moduleSet) verify(opts Options) {
	for _, m := range set.mods {
		m.rpcSites()
	}
	if opts.enabled(PassRPC) {
		set.rpcEndpoints()
	}
	if opts.enabled(PassSync) {
		set.syncProtocol()
	}
}

// rpcSites collects the module's RPC syscall sites, resolving endpoint
// arguments by constant propagation (through MiniC's stack-marshaled
// syscall arguments, probe-helper aware). Sites in code unreachable
// from their function's entry are dropped: an unreachable recv serves
// nothing.
func (ctx *context) rpcSites() {
	for _, f := range ctx.funcs {
		var cp *cfg.ConstProp
		for idx := f.fn.Entry; idx < f.fn.End; idx++ {
			in := ctx.m.Code[idx]
			num := int(in.Imm)
			if in.Op != isa.SYS || (num != isa.SysRPCCall && num != isa.SysRPCRecv && num != isa.SysRPCReply) {
				continue
			}
			b, ok := f.g.BlockContaining(idx)
			if !ok || !f.dom.Reachable(b.ID) {
				continue
			}
			s := rpcSite{fn: f, instr: idx, block: b.ID}
			if reg, ok := isa.SysEndpointArg(num); ok {
				if cp == nil {
					cp = cfg.NewConstProp(f.g, map[uint32]bool{ctx.helper.Entry: true})
				}
				s.ep, s.known = cp.RegBefore(idx, reg)
			}
			switch num {
			case isa.SysRPCCall:
				ctx.calls = append(ctx.calls, s)
			case isa.SysRPCRecv:
				ctx.recvs = append(ctx.recvs, s)
			case isa.SysRPCReply:
				ctx.replies = append(ctx.replies, s)
			}
		}
	}
}

// resolveCall resolves the call terminating block b of a function in
// module m to an analyzed function, following CALX imports across
// modules. Indirect calls and unresolvable imports return nil.
func (set *moduleSet) resolveCall(m *context, b *cfg.Block) *fnInfo {
	switch b.CallKind {
	case module.CallDirect:
		for _, f := range m.funcs {
			if f.fn.Entry == uint32(b.CallImm) {
				return f
			}
		}
	case module.CallImport:
		if int(b.CallImm) >= len(m.m.Imports) {
			return nil
		}
		im := m.m.Imports[b.CallImm]
		for _, om := range set.mods {
			if om == m || om.m == nil || (im.Module != "" && om.m.Name != im.Module) {
				continue
			}
			for _, of := range om.funcs {
				if of.fn.Exported && of.fn.Name == im.Name {
					return of
				}
			}
		}
	}
	return nil
}

// rpcEndpoints builds the static distributed call graph and checks it
// for unserved endpoints. The VM's dispatch (RPCServerFault when no
// process has registered the endpoint) makes a constant call endpoint
// with no recv in the set a guaranteed runtime fault, so that is an
// error; endpoints the analysis cannot resolve only warn. A recv
// whose own endpoint is unresolvable is treated as a wildcard server:
// it downgrades every unserved-endpoint finding to a warning, since
// it may serve any id at runtime.
func (set *moduleSet) rpcEndpoints() {
	served := map[int64][]string{}
	wildcard := false
	totalCalls, totalRecvs := 0, 0
	for _, m := range set.mods {
		totalRecvs += len(m.recvs)
		for _, s := range m.recvs {
			if s.known {
				if !contains(served[s.ep], m.name) {
					served[s.ep] = append(served[s.ep], m.name)
				}
				continue
			}
			wildcard = true
			m.warnf(PassRPC, -1, int(s.instr),
				"cannot resolve this rpc-recv's endpoint id statically; treating it as serving any endpoint (unserved-endpoint findings are downgraded to warnings)")
		}
	}

	for _, m := range set.mods {
		totalCalls += len(m.calls)
		for _, s := range m.calls {
			if !s.known {
				m.warnf(PassRPC, -1, int(s.instr),
					"cannot resolve this rpc-call's endpoint id statically; the fleet-level service check is skipped for this site")
				continue
			}
			if len(served[s.ep]) > 0 {
				continue
			}
			if wildcard {
				m.warnf(PassRPC, -1, int(s.instr),
					"rpc-call endpoint %d matches no statically-resolved rpc-recv in the fleet; only an unresolved recv could serve it", s.ep)
				continue
			}
			m.errorf(PassRPC, -1, int(s.instr),
				"rpc-call endpoint %d is served by no module in the fleet: the call raises %s at runtime (sys %s)",
				s.ep, "RPCServerFault", isa.SysName(isa.SysRPCCall))
		}
	}

	if totalCalls+totalRecvs > 0 {
		eps := make([]int64, 0, len(served))
		for e := range served {
			eps = append(eps, e)
		}
		sort.Slice(eps, func(i, j int) bool { return eps[i] < eps[j] })
		var parts []string
		for _, e := range eps {
			parts = append(parts, "endpoint "+strconv.FormatInt(e, 10)+" by "+strings.Join(served[e], "+"))
		}
		desc := "none"
		if len(parts) > 0 {
			desc = strings.Join(parts, ", ")
		}
		set.res.add(Diagnostic{Pass: PassRPC, Severity: SevInfo, DAG: -1, Instr: -1,
			Msg: fmt.Sprintf("static RPC graph: %d call site(s), %d recv site(s); served endpoints: %s",
				totalCalls, totalRecvs, desc)})
	}
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}
