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
	// DAGBases optionally pre-assigns DAG ranges by module name
	// (paper §2.3's DAG base file).
	DAGBases map[string]uint32
	// NoMemoryDump omits module data segments from snaps (they are
	// included by default so the viewer can display variable values,
	// paper §3.6).
	NoMemoryDump bool
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

// bufKind mirrors snap.BufferKind for in-memory headers.
const (
	bufMain = iota
	bufStatic
	bufProbation
	bufDesperation
)

// buffer is the host-side view of one trace buffer; authoritative
// state (owner, committed sub-buffer, released pointer) lives in the
// in-memory header so post-mortem snaps read pure memory.
type buffer struct {
	kind       int
	headerAddr uint64
	dataAddr   uint64
	words      int
	subWords   int // words per sub-buffer, including its sentinel
	subs       int
}

// In-memory buffer header offsets (16 bytes).
const (
	hdrOwner     = 0
	hdrCommitted = 4
	hdrLastPtr   = 8
	hdrKind      = 12
	hdrSize      = 16
)

const staticWords = 256

// Runtime is one process's TraceBack runtime instance.
type Runtime struct {
	cfg  Config
	proc *vm.Process
	// ID uniquely identifies this runtime for SYNC records.
	ID uint64

	buffers     []*buffer // main buffers
	static      *buffer
	probation   *buffer
	desperation *buffer

	byThread map[int]*buffer
	free     []*buffer

	modules    []*loadedInfo
	ranges     []dagRange
	byChecksum map[string]uint32 // checksum -> preferred base (reload stability)

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

	// met holds the runtime's registry-backed self-telemetry; the
	// legacy stat accessors (Wraps, SubCommits, ...) read from it.
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
}

// NewProcess creates a process with an attached TraceBack runtime.
func NewProcess(m *vm.Machine, name string, cfg Config) (*vm.Process, *Runtime, error) {
	rt := &Runtime{
		cfg:           cfg.withDefaults(),
		byThread:      map[int]*buffer{},
		byChecksum:    map[string]uint32{},
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
	if err := rt.initBuffers(); err != nil {
		return nil, nil, err
	}
	rt.met.buffersFree.Set(int64(len(rt.free)))
	rt.met.buffersTotal.Set(int64(len(rt.buffers)))
	return p, rt, nil
}

// Proc returns the attached process.
func (rt *Runtime) Proc() *vm.Process { return rt.proc }

// Snaps returns snaps collected so far (when no SnapSink is set, or
// in addition to it).
func (rt *Runtime) Snaps() []*snap.Snap { return rt.snaps }

// initBuffers carves the trace region out of the process address
// space and lays out headers, sentinels, and the special buffers.
func (rt *Runtime) initBuffers() error {
	c := rt.cfg
	per := hdrSize + c.BufferWords*4
	total := c.NumBuffers*per +
		(hdrSize + staticWords*4) + // static
		(hdrSize + 2*4) + // probation: pad + sentinel
		(hdrSize + c.BufferWords*4) // desperation
	base := rt.proc.AllocRegion(uint32(total))
	if base == 0 {
		return fmt.Errorf("tbrt: cannot allocate %d-byte trace region", total)
	}
	addr := uint64(base)
	mk := func(kind, words, subs int) *buffer {
		b := &buffer{
			kind:       kind,
			headerAddr: addr,
			dataAddr:   addr + hdrSize,
			words:      words,
			subs:       subs,
			subWords:   words / subs,
		}
		addr += uint64(hdrSize + words*4)
		rt.proc.WriteU32(b.headerAddr+hdrKind, uint32(kind))
		// "No sub-buffer committed yet" is represented as subs-1, so
		// the first uncommitted sub-buffer — where a dead thread's
		// progress is sought — is sub 0.
		rt.proc.WriteU32(b.headerAddr+hdrCommitted, uint32(subs-1))
		rt.initSentinels(b)
		return b
	}
	for i := 0; i < c.NumBuffers; i++ {
		b := mk(bufMain, c.BufferWords, c.SubBuffers)
		rt.buffers = append(rt.buffers, b)
		rt.free = append(rt.free, b)
	}
	rt.static = mk(bufStatic, staticWords, 1)
	rt.probation = mk(bufProbation, 2, 1)
	rt.desperation = mk(bufDesperation, c.BufferWords, 1)
	return nil
}

// initSentinels zeroes a buffer and writes the sub-buffer sentinels
// (every sub-buffer's final word; paper §3.1/§3.2).
func (rt *Runtime) initSentinels(b *buffer) {
	for i := 0; i < b.words; i++ {
		rt.proc.WriteU32(b.dataAddr+uint64(i)*4, trace.Invalid)
	}
	for s := 0; s < b.subs; s++ {
		end := (s+1)*b.subWords - 1
		rt.proc.WriteU32(b.dataAddr+uint64(end)*4, trace.Sentinel)
	}
	if b.kind == bufProbation {
		// Probation holds only the sentinel: the first probe of any
		// thread immediately triggers buffer_wrap (paper §3.1).
		rt.proc.WriteU32(b.dataAddr+4, trace.Sentinel)
	}
}

// now returns a timestamp: the machine clock analog of RDTSC, or the
// logical clock when configured (incremented per significant event).
func (rt *Runtime) now() uint64 {
	if rt.cfg.UseLogicalClock {
		rt.logicalClock++
		return rt.logicalClock
	}
	return rt.proc.Machine.Timestamp()
}

func (rt *Runtime) tlsPtr(t *vm.Thread) uint64 {
	return t.TLS[rt.cfg.TLSSlot%isa.NumTLSSlots]
}

func (rt *Runtime) setTLSPtr(t *vm.Thread, v uint64) {
	t.TLS[rt.cfg.TLSSlot%isa.NumTLSSlots] = v
}

func (rt *Runtime) hdrRead(b *buffer, off uint64) uint32 {
	v, _ := rt.proc.ReadU32(b.headerAddr + off)
	return v
}

func (rt *Runtime) hdrWrite(b *buffer, off uint64, v uint32) {
	rt.proc.WriteU32(b.headerAddr+off, v)
}

// wordIndex converts an address inside b's data to a word index.
func (b *buffer) wordIndex(addr uint64) (int, bool) {
	if addr < b.dataAddr || addr >= b.dataAddr+uint64(b.words)*4 {
		return 0, false
	}
	return int(addr-b.dataAddr) / 4, true
}
