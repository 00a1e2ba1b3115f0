// Package snap defines the TraceBack snapshot file: the collection of
// raw trace buffers and process metadata from which reconstruction
// rebuilds an execution history (paper §3.6). A snap records the
// process and host identity, the loaded-module list with checksums
// and the DAG ID ranges actually in use (after any load-time
// rebasing), the trigger, and every trace buffer's contents.
package snap

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"traceback/internal/trace"
)

// BufferKind classifies a dumped buffer.
type BufferKind uint8

// The numbers are those of snaps on disk; 1 is retired (it was a
// static buffer nothing wrote).
const (
	BufMain        BufferKind = 0
	BufProbation   BufferKind = 2
	BufDesperation BufferKind = 3
)

func (k BufferKind) String() string {
	switch k {
	case BufMain:
		return "main"
	case BufProbation:
		return "probation"
	case BufDesperation:
		return "desperation"
	}
	return fmt.Sprintf("bufkind(%d)", uint8(k))
}

// ModuleInfo describes one module load as reconstruction needs it:
// the checksum keys the matching mapfile, ActualDAGBase maps DAG IDs
// in trace records back to module-relative IDs, and CodeBase maps
// exception addresses back into the module.
type ModuleInfo struct {
	Name          string `json:"name"`
	Checksum      string `json:"checksum"`
	ActualDAGBase uint32 `json:"dagBase"`
	DAGCount      uint32 `json:"dagCount"`
	CodeBase      uint32 `json:"codeBase"`
	CodeLen       uint32 `json:"codeLen"`
	BadDAG        bool   `json:"badDag,omitempty"` // runtime exhausted the ID space for this module
	// DataDump captures the module's data segment at snap time (the
	// paper's §3.6 memory dump, letting the viewer display variable
	// values), indexed by module-relative offset.
	DataDump []byte `json:"dataDump,omitempty"`
}

// BufferDump is one trace buffer's raw contents.
type BufferDump struct {
	Kind BufferKind `json:"kind"`
	// OwnerTID is the thread using the buffer at snap time (0: free).
	OwnerTID uint32 `json:"ownerTid"`
	// LastPtr is the word index of the last written record, when the
	// runtime knows it (live thread TLS, or saved at orderly release).
	// LastKnown is false after abrupt termination: reconstruction
	// must fall back to the committed-sub-buffer scan (paper §3.2).
	LastPtr   uint32 `json:"lastPtr"`
	LastKnown bool   `json:"lastKnown"`
	// CommittedSub is the index of the last committed sub-buffer from
	// the buffer header, and SubWords the sub-buffer size in words.
	CommittedSub uint32 `json:"committedSub"`
	SubWords     uint32 `json:"subWords"`
	// Raw holds the buffer words, little-endian.
	Raw []byte `json:"raw"`
}

// Words decodes the raw bytes into trace words.
func (b *BufferDump) Words() []uint32 {
	out := make([]uint32, len(b.Raw)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b.Raw[i*4:])
	}
	return out
}

// SetWords encodes words into Raw.
func (b *BufferDump) SetWords(words []uint32) {
	b.Raw = make([]byte, len(words)*4)
	for i, w := range words {
		binary.LittleEndian.PutUint32(b.Raw[i*4:], w)
	}
}

// NondetLog is the optional record-and-replay section: the
// nondeterminism log of the run that produced the snap, plus the
// provenance internal/replay needs to rebuild the same world. One
// type serves from recorder to replay. The section is
// format-versioned and optional — snaps written without it decode
// with Nondet nil and replay is simply unavailable for them.
type NondetLog struct {
	// V is the section format version (bump on layout change).
	V int `json:"v"`
	// Scenario names the world builder that produced the run (a
	// scenario.Builders entry, or "petshop" for the managed runtime).
	Scenario string `json:"scenario"`
	// Wrap marks a run under the tiny-buffer wrap-stress runtime
	// config; Trial marks a fault-campaign-style harvest (service
	// heartbeat + per-role post-mortem) rather than the scenario's
	// own Collect path.
	Wrap  bool `json:"wrap,omitempty"`
	Trial bool `json:"trial,omitempty"`
	// Events is the recorded stream, in observation order.
	Events []trace.NondetRecord `json:"events"`
}

// Snap is a complete snapshot.
type Snap struct {
	Host      string `json:"host"`
	Process   string `json:"process"`
	PID       int    `json:"pid"`
	RuntimeID uint64 `json:"runtimeId"`
	// Reason is the trigger description ("exception SIGSEGV", "api",
	// "hang", "group", "external").
	Reason     string `json:"reason"`
	TriggerTID uint32 `json:"triggerTid,omitempty"`
	Signal     int    `json:"signal,omitempty"`
	Time       uint64 `json:"time"`

	Modules []ModuleInfo `json:"modules"`
	Buffers []BufferDump `json:"buffers"`

	// Nondet, when present, carries the recorded nondeterminism log
	// of the run that produced this snap (see NondetLog); tbreplay
	// re-executes from it.
	Nondet *NondetLog `json:"nondet,omitempty"`
}

// ModuleForDAG resolves a (rebased) DAG ID to its module and the
// module-relative ID, per the actual ranges recorded at snap time.
func (s *Snap) ModuleForDAG(id uint32) (ModuleInfo, uint32, bool) {
	for _, mi := range s.Modules {
		if mi.BadDAG {
			continue
		}
		if id >= mi.ActualDAGBase && id < mi.ActualDAGBase+mi.DAGCount {
			return mi, id - mi.ActualDAGBase, true
		}
	}
	return ModuleInfo{}, 0, false
}

// ModuleForAddr resolves an absolute code address to its module.
func (s *Snap) ModuleForAddr(addr uint64) (ModuleInfo, bool) {
	for _, mi := range s.Modules {
		if addr >= uint64(mi.CodeBase) && addr < uint64(mi.CodeBase)+uint64(mi.CodeLen) {
			return mi, true
		}
	}
	return ModuleInfo{}, false
}

// Save writes the snap as JSON.
func (s *Snap) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(s)
}

// Load reads a snap.
func Load(r io.Reader) (*Snap, error) {
	var s Snap
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("snap: %w", err)
	}
	return &s, nil
}
