// Package tbrt is the TraceBack runtime: the support library that
// instrumented code depends on (paper §3). It owns the trace buffers
// (main / static / probation / desperation, with sub-buffering for
// abrupt-termination recovery), performs DAG rebasing and TLS-slot
// fixups at module load, interposes on exceptions and signals,
// inserts timestamp and SYNC records, and produces snaps under policy
// control.
//
// The runtime runs as host code attached to a vm.Process through the
// vm.Hooks interface — the same relationship the paper's native
// runtime library has to the traced program (outside it, invoked at
// probes and OS events). All trace state lives inside the process's
// address space, in a region that models the paper's memory-mapped
// file: another process can copy it even after the program dies.
package tbrt

import (
	"fmt"
	"hash/fnv"

	"traceback/internal/isa"
	"traceback/internal/snap"
	"traceback/internal/telemetry"
	"traceback/internal/trace"
	"traceback/internal/vm"
)

// Config sizes the runtime and sets policy.
type Config struct {
	// BufferWords is the size of each main trace buffer in 32-bit
	// words (default 16384 = 64 KiB, the paper's typical size).
	BufferWords int
	// NumBuffers is the number of main buffers (default 8).
	NumBuffers int
	// SubBuffers partitions each main buffer for abrupt-termination
	// recovery (default 4; 1 disables sub-buffering: a plain ring
	// with no commit points).
	SubBuffers int
	// TLSSlot is the thread-local slot probes use (default
	// isa.TLSSlot). If it differs from the slot modules were
	// instrumented with, the runtime rewrites the probe TLS indexes
	// at load (paper §2.5).
	TLSSlot int
	// UseLogicalClock replaces hardware timestamps with a logical
	// clock incremented at significant events (paper §3.5, platforms
	// without a high-resolution clock).
	UseLogicalClock bool
	// Policy controls snap triggers and suppression.
	Policy Policy
	// SnapSink receives completed snaps (default: collect in memory).
	SnapSink func(*snap.Snap)
	// Telemetry is the metrics registry the runtime instruments
	// itself on (default: a private registry). Pass a shared registry
	// to aggregate runtime, VM, and service metrics into one
	// exposition. Telemetry is host-side: it never charges VM cycles.
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.BufferWords == 0 {
		c.BufferWords = 16384
	}
	if c.NumBuffers == 0 {
		c.NumBuffers = 8
	}
	if c.SubBuffers == 0 {
		c.SubBuffers = 4
	}
	if c.TLSSlot == 0 {
		c.TLSSlot = isa.TLSSlot
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.New()
	}
	c.Policy = c.Policy.withDefaults()
	return c
}

// Runtime is one process's TraceBack runtime instance.
type Runtime struct {
	cfg  Config
	proc *vm.Process
	// ID uniquely identifies this runtime for SYNC records.
	ID uint64

	// bufs holds the trace buffers and each thread's assignment.
	bufs *BufferSet

	modules []*loadedInfo
	ranges  []dagRange

	logicalClock uint64

	// Logical-thread state for distributed tracing (paper §5.1).
	lt *trace.LogicalThreads

	// savedDAG holds, per thread, the interrupted DAG record pending
	// re-issue when a signal handler returns.
	savedDAG map[int][]trace.Word

	// JNI bridge state: threads bound into managed logical threads,
	// and the reply payloads they leave at exit.
	jniBound map[int]bool
	jniReply map[int][]byte

	// lastFaultAddr remembers first-chance fault addresses by signal
	// so the fatal-exit snap shares its suppression key.
	lastFaultAddr map[int]uint64

	suppress map[string]int
	snaps    []*snap.Snap

	// met holds the runtime's registry-backed self-telemetry.
	met rtMetrics
	rec *telemetry.Recorder
}

type loadedInfo struct {
	lm     *vm.LoadedModule
	badDAG bool
}

type dagRange struct {
	base, count uint32
	checksum    string
	unloaded    bool // the module is gone; its records may not be
}

// NewProcess creates a process with an attached TraceBack runtime.
func NewProcess(m *vm.Machine, name string, cfg Config) (*vm.Process, *Runtime, error) {
	rt := &Runtime{
		cfg:           cfg.withDefaults(),
		savedDAG:      map[int][]trace.Word{},
		jniBound:      map[int]bool{},
		jniReply:      map[int][]byte{},
		lastFaultAddr: map[int]uint64{},
		suppress:      map[string]int{},
	}
	p := m.NewProcess(name, rt)
	rt.proc = p
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s/%d", m.Name, name, p.PID)
	rt.ID = h.Sum64()
	rt.lt = trace.NewLogicalThreads(rt.ID)
	rt.initMetrics()
	c := rt.cfg
	bufs, err := NewBufferSet(p, Geometry{Words: c.BufferWords, Buffers: c.NumBuffers, Subs: c.SubBuffers},
		c.Telemetry, rt.now, rt.owner)
	if err != nil {
		return nil, nil, err
	}
	rt.bufs = bufs
	return p, rt, nil
}

// Proc returns the attached process.
func (rt *Runtime) Proc() *vm.Process { return rt.proc }

// Snaps returns snaps collected so far (when no SnapSink is set, or
// in addition to it).
func (rt *Runtime) Snaps() []*snap.Snap { return rt.snaps }

// now returns a timestamp: the machine clock analog of RDTSC, or the
// logical clock when configured (incremented per significant event).
func (rt *Runtime) now() uint64 {
	if rt.cfg.UseLogicalClock {
		rt.logicalClock++
		return rt.logicalClock
	}
	return rt.proc.Machine.Timestamp()
}

// cursor returns the address of t's TLS trace slot, which holds the
// address of the last record t wrote.
func (rt *Runtime) cursor(t *vm.Thread) *uint64 {
	return &t.TLS[rt.cfg.TLSSlot%isa.NumTLSSlots]
}

// owner resolves a native buffer owner's cursor for the buffer set; a
// thread killed without notice lost its TLS with it.
func (rt *Runtime) owner(tid int) (*uint64, bool) {
	t := rt.proc.Threads[tid]
	if t == nil {
		return nil, false
	}
	return rt.cursor(t), t.KilledAbruptly
}
