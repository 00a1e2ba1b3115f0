package vm

import (
	"fmt"

	"traceback/internal/isa"
)

// syscall dispatches SYS instructions. Arguments arrive in r1..r4 and
// the result goes in r0. The runtime hook observes every syscall
// (timestamp insertion at synchronization points) and services the
// TraceBack-specific ones.
func (m *Machine) syscall(t *Thread, num int) (stepResult, int) {
	p := t.Proc
	r := &t.Regs
	if m.met != nil {
		m.met.syscalls[classifySyscall(num)].Inc()
	}
	p.Hooks.OnSyscall(t, num)

	switch num {
	case isa.SysExit:
		p.ExitCode = int(int64(r[isa.A1]))
		m.terminate(p, 0)
		return stepExited, 0

	case isa.SysWrite:
		b, ok := p.ReadBytes(r[isa.A2], r[isa.A3])
		if !ok {
			return stepFault, SigSegv
		}
		p.Out = append(p.Out, b...)
		r[isa.RV] = r[isa.A3]

	case isa.SysThreadCreate:
		nt, err := p.StartThread(r[isa.A1], r[isa.A2])
		if err != nil {
			r[isa.RV] = ^uint64(0)
		} else {
			r[isa.RV] = uint64(nt.TID)
		}

	case isa.SysThreadJoin:
		target, ok := p.Threads[int(r[isa.A1])]
		if !ok {
			r[isa.RV] = ^uint64(0)
			break
		}
		if target.State == Exited {
			r[isa.RV] = target.ExitValue
			break
		}
		t.State = BlockedJoin
		t.joinTID = target.TID
		target.joinWaiters = append(target.joinWaiters, t)
		return stepBlocked, 0

	case isa.SysSleep:
		d := int64(r[isa.A1])
		if d < 0 {
			// A negative sleep raises an exception (the Oracle
			// random-argument-to-sleep story, paper §6.1).
			return stepFault, SigArg
		}
		t.State = Sleeping
		t.wakeAt = m.clock + uint64(d)
		return stepBlocked, 0

	case isa.SysMutexLock:
		addr := uint32(r[isa.A1])
		mu := p.mutexes[addr]
		if mu == nil {
			mu = &mutexState{}
			p.mutexes[addr] = mu
		}
		if mu.owner == nil {
			mu.owner = t
			break
		}
		if mu.owner == t {
			// Self-deadlock: block forever (hang detection fodder).
			t.State = BlockedMutex
			t.blockedAddr = addr
			return stepBlocked, 0
		}
		mu.waiters = append(mu.waiters, t)
		t.State = BlockedMutex
		t.blockedAddr = addr
		return stepBlocked, 0

	case isa.SysMutexUnlock:
		addr := uint32(r[isa.A1])
		mu := p.mutexes[addr]
		if mu == nil || mu.owner != t {
			break // unlocking a mutex you don't own is a no-op
		}
		if len(mu.waiters) > 0 {
			next := mu.waiters[0]
			mu.waiters = mu.waiters[1:]
			mu.owner = next
			next.State = Runnable
		} else {
			mu.owner = nil
		}

	case isa.SysClock:
		r[isa.RV] = m.Timestamp()

	case isa.SysRaise:
		return stepFault, int(r[isa.A1])

	case isa.SysKill:
		target, ok := p.Threads[int(r[isa.A1])]
		sig := int(r[isa.A2])
		if !ok {
			r[isa.RV] = ^uint64(0)
			break
		}
		if sig == SigKill {
			// Abrupt: no runtime notification, TLS lost (paper §3.2).
			target.State = Exited
			target.KilledAbruptly = true
		} else if target == t {
			return stepFault, sig
		}
		// Cross-thread non-KILL signals are delivered as if raised on
		// the target at its next scheduling; simplified to immediate
		// state for determinism.

	case isa.SysSignal:
		sig := int(r[isa.A1])
		prev := p.Handlers[sig]
		p.Handlers[sig] = r[isa.A2]
		r[isa.RV] = prev

	case isa.SysAlloc:
		r[isa.RV] = 0
		if size := r[isa.A1]; size < 1<<32 {
			r[isa.RV] = uint64(p.AllocRegion(uint32(size)))
		}

	case isa.SysSnap:
		reason := "api"
		if b, ok := p.ReadBytes(r[isa.A1], r[isa.A2]); ok && len(b) > 0 {
			reason = string(b)
		}
		p.Hooks.OnSnapRequest(t, reason)

	case isa.SysTBWrap:
		r[isa.RV] = p.Hooks.OnBufferWrap(t)

	case isa.SysRand:
		r[isa.RV] = uint64(m.rng.Int63())

	case isa.SysMemcpy:
		dst, src, n := r[isa.A1], r[isa.A2], r[isa.A3]
		// Deliberately unchecked against object bounds — only against
		// the address space — so buffer overruns corrupt neighboring
		// memory exactly as the paper's memcpy war stories describe.
		b, ok := p.ReadBytes(src, n)
		if !ok || !p.WriteBytes(dst, b) {
			return stepFault, SigSegv
		}
		m.clock += n / 8

	case isa.SysGetTID:
		r[isa.RV] = uint64(t.TID)

	case isa.SysPrintInt:
		p.Out = append(p.Out, []byte(fmt.Sprintf("%d\n", int64(r[isa.A1])))...)

	case isa.SysGetArg:
		r[isa.RV] = t.StartArg

	case isa.SysYield:
		return stepBlocked, 0 // stays Runnable; just ends the slice

	case isa.SysIORead:
		m.clock += CostDiskBase + r[isa.A1]*CostDiskPerKB/1024
	case isa.SysIOWrite:
		m.clock += CostDiskBase + r[isa.A1]*CostDiskPerKB/1024
	case isa.SysNetSend:
		m.clock += CostNetBase + r[isa.A1]*CostNetPerKB/1024

	case isa.SysLoadModule:
		r[isa.RV] = m.sysLoadModule(t)

	case isa.SysUnloadModule:
		h := int(r[isa.A1])
		for _, lm := range p.Modules {
			if lm.Handle == h {
				p.Unload(lm)
				break
			}
		}

	case isa.SysRPCCall:
		return m.rpcCall(t)
	case isa.SysRPCRecv:
		return m.rpcRecv(t)
	case isa.SysRPCReply:
		return m.rpcReply(t)

	default:
		return stepFault, SigIll
	}
	return stepOK, 0
}

// ModuleResolver lets a process load modules by name at runtime
// (SysLoadModule). Installed by the host harness.
type ModuleResolver func(name string) *LoadedModule

// SetModuleResolver installs the dynamic-load resolver for p.
func (p *Process) SetModuleResolver(r ModuleResolver) { p.resolver = r }

func (m *Machine) sysLoadModule(t *Thread) uint64 {
	p := t.Proc
	if p.resolver == nil {
		return 0
	}
	name, ok := p.ReadBytes(t.Regs[isa.A1], t.Regs[isa.A2])
	if !ok {
		return 0
	}
	lm := p.resolver(string(name))
	if lm == nil {
		return 0
	}
	return uint64(lm.Handle)
}
