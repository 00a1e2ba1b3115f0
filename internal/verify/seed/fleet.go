package seed

import (
	"fmt"

	"traceback/internal/core"
	"traceback/internal/isa"
	"traceback/internal/minic"
	"traceback/internal/module"
)

// The fleet baseline is the smallest interesting distributed shape:
// one client calling endpoint 77, one server looping recv/reply on it
// with a branch (so sync mutations can break a single path).
const fleetClientSrc = `int main() {
	int req = alloc(64);
	int resp = alloc(64);
	poke(req, 1);
	rpc_call(77, req, 32, resp);
	exit(0);
}`

const fleetServerSrc = `int main() {
	int buf = alloc(64);
	int out = alloc(64);
	int i = 0;
	while (i < 3) {
		rpc_recv(77, buf, 64);
		int kind = peek(buf);
		if (kind == 1) {
			rpc_reply(77, 0, out, 8);
		} else {
			rpc_reply(77, 1, out, 0);
		}
		i = i + 1;
	}
	exit(0);
}`

// FleetModule is one named module of a fleet corpus case.
type FleetModule struct {
	Name   string
	Module *module.Module
}

// FleetCase is one module-set corpus entry: a module set and the
// verify pass that must report at least one error-level diagnostic
// for it. Pass is empty for the clean baseline.
type FleetCase struct {
	Name    string
	Pass    string // verify pass name expected to flag it; "" = clean
	Desc    string
	Modules []FleetModule
}

// FleetBase compiles and instruments the baseline client/server pair.
func FleetBase() ([]FleetModule, error) {
	out := make([]FleetModule, 0, 2)
	for _, s := range []struct{ name, src string }{
		{"fleetclient", fleetClientSrc},
		{"fleetserver", fleetServerSrc},
	} {
		mod, err := minic.Compile(s.name, s.name+".mc", s.src)
		if err != nil {
			return nil, err
		}
		res, err := core.Instrument(mod, core.Options{})
		if err != nil {
			return nil, err
		}
		out = append(out, FleetModule{Name: s.name, Module: res.Module})
	}
	return out, nil
}

// FleetCases builds the cross-module corpus. Each broken case starts
// from a fresh FleetBase build so mutations never interact.
func FleetCases() ([]FleetCase, error) {
	mutations := []struct {
		name, pass, desc string
		apply            func([]FleetModule) error
	}{
		{"fleet-clean", "", "unmutated client/server pair; must fleet-verify with zero errors",
			func([]FleetModule) error { return nil }},
		{"unserved-endpoint", "rpc-endpoints",
			"client's call endpoint constant rewritten 77->78; no module serves 78, so the call raises RPCServerFault at runtime", unservedEndpoint},
		{"missing-sync", "sync-protocol",
			"one branch's rpc-reply replaced by a write of its result register; a path from recv escapes without emitting SyncReplySend", missingSync},
		{"ambiguous-trailer", "decodability",
			"a heavy probe word rewritten to an extended-record trailer shape (tag 0x7F, bit 31 clear); wrapped-buffer suffixes gain a second valid backward mining", ambiguousTrailer},
	}
	out := make([]FleetCase, 0, len(mutations))
	for _, mut := range mutations {
		mods, err := FleetBase()
		if err != nil {
			return nil, err
		}
		if err := mut.apply(mods); err != nil {
			return nil, fmt.Errorf("fleet case %s: %w", mut.name, err)
		}
		out = append(out, FleetCase{Name: mut.name, Pass: mut.pass, Desc: mut.desc, Modules: mods})
	}
	return out, nil
}

// fleetModule finds the named module in a FleetBase build.
func fleetModule(mods []FleetModule, name string) (*module.Module, error) {
	for _, fm := range mods {
		if fm.Name == name {
			return fm.Module, nil
		}
	}
	return nil, fmt.Errorf("no module %s in fleet base", name)
}

// unservedEndpoint retargets the client's single endpoint-id constant
// (MOVI 77, stack-marshaled into the rpc_call's first argument) onto
// an endpoint no recv in the fleet serves.
func unservedEndpoint(mods []FleetModule) error {
	m, err := fleetModule(mods, "fleetclient")
	if err != nil {
		return err
	}
	for i := range m.Code {
		if m.Code[i].Op == isa.MOVI && m.Code[i].Imm == 77 {
			m.Code[i].Imm = 78
			return nil
		}
	}
	return fmt.Errorf("no MOVI 77 endpoint constant in client")
}

// missingSync replaces the server's last rpc-reply syscall — the
// else-branch reply — with MOVI RV, 0, leaving a path on which the
// recv's pending request is never answered. The replacement writes
// RV as the syscall did, so no lightweight probe that scavenges RV
// finds it live and only sync-protocol flags the case; the marshaling
// PUSH/POPs stay balanced.
func missingSync(mods []FleetModule) error {
	m, err := fleetModule(mods, "fleetserver")
	if err != nil {
		return err
	}
	helper, ok := m.FuncByName(core.HelperName)
	if !ok {
		return fmt.Errorf("no probe helper in server")
	}
	for i := int(helper.Entry) - 1; i >= 0; i-- {
		if m.Code[i].Op == isa.SYS && int(m.Code[i].Imm) == isa.SysRPCReply {
			m.Code[i] = isa.Instr{Op: isa.MOVI, A: isa.RV}
			return nil
		}
	}
	return fmt.Errorf("no rpc-reply syscall in server")
}

// ambiguousTrailer rewrites the server's first heavy probe word into
// the 0x7F trailer shape: bit 31 clear, top byte the extended-record
// trailer tag, so backward mining can also read it as closing a
// phantom extended record. It is no DAG record, which decodability
// reports.
func ambiguousTrailer(mods []FleetModule) error {
	m, err := fleetModule(mods, "fleetserver")
	if err != nil {
		return err
	}
	if len(m.DAGFixups) == 0 {
		return fmt.Errorf("no DAG fixups in server")
	}
	m.Code[m.DAGFixups[0]].Imm = int32(0x7F<<24 | 8<<16 | 2)
	return nil
}
