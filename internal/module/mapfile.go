package module

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"traceback/internal/trace"
)

// CallKind classifies the call ending a mapfile block.
type CallKind uint8

const (
	CallNone     CallKind = iota
	CallDirect            // CALL: intra-module direct call
	CallImport            // CALX: cross-module call through the import table
	CallIndirect          // CALR: call through a register
)

func (k CallKind) String() string {
	switch k {
	case CallNone:
		return "none"
	case CallDirect:
		return "direct"
	case CallImport:
		return "import"
	case CallIndirect:
		return "indirect"
	}
	return fmt.Sprintf("callkind(%d)", uint8(k))
}

// LineSpan maps the instrumented-code instruction range [Start, End)
// within a block to one source line. Exception addresses are trimmed
// against these spans during reconstruction.
type LineSpan struct {
	File  string `json:"file"`
	Line  uint32 `json:"line"`
	Start uint32 `json:"start"`
	End   uint32 `json:"end"`
}

// MapBlock describes one basic block of an instrumented module as the
// reconstruction phase needs to see it.
type MapBlock struct {
	Start uint32 `json:"start"` // instrumented-code instruction index
	End   uint32 `json:"end"`   // exclusive
	// Bit is the lightweight-probe bit assigned to this block within
	// its DAG record, or -1 if the block needs no probe (its execution
	// is implied by a predecessor's).
	Bit int8 `json:"bit"`
	// Succs lists in-DAG successors as indexes into the DAG's Blocks.
	Succs []int `json:"succs,omitempty"`
	// Lines are the source lines the block covers, in execution order.
	Lines []LineSpan `json:"lines,omitempty"`

	// Annotations used by the call-hierarchy display (paper §4.3.1).
	Call       CallKind `json:"call,omitempty"`
	CallTarget string   `json:"callTarget,omitempty"`
	FuncEntry  string   `json:"funcEntry,omitempty"`  // function name if this block is its entry
	FuncExit   bool     `json:"funcExit,omitempty"`   // block ends in RET
	CallReturn bool     `json:"callReturn,omitempty"` // block is a call's return point
}

// MapDAG is one DAG of the tiling: Blocks[0] is the header (the block
// holding the heavyweight probe).
type MapDAG struct {
	ID     uint32     `json:"id"` // module-relative DAG ID
	Blocks []MapBlock `json:"blocks"`
}

// MapFile is the instrumentation-time sidecar that reconstruction
// combines with trace data. It carries the module checksum so traces
// and mapfiles can be matched reliably (paper §2.3).
type MapFile struct {
	ModuleName string   `json:"module"`
	Checksum   string   `json:"checksum"` // hex MD5
	DAGBase    uint32   `json:"dagBase"`  // default base at instrumentation time
	DAGCount   uint32   `json:"dagCount"`
	DAGs       []MapDAG `json:"dags"`
	// Managed marks intermediate-code (bytecode) instrumentation
	// (paper §2.4): lightweight probes sit at source line boundaries
	// rather than on CFG blocks, so path expansion takes every marked
	// block in bit order instead of walking successor edges.
	Managed bool `json:"managed,omitempty"`
	// Globals lets the snap variables view resolve data-segment
	// symbols (the paper's memory/object dump display, §3.6).
	Globals []Global `json:"globals,omitempty"`
}

// DAGByID returns the DAG with module-relative id.
func (mf *MapFile) DAGByID(id uint32) (*MapDAG, bool) {
	if id < uint32(len(mf.DAGs)) && mf.DAGs[id].ID == id {
		return &mf.DAGs[id], true
	}
	for i := range mf.DAGs {
		if mf.DAGs[i].ID == id {
			return &mf.DAGs[i], true
		}
	}
	return nil, false
}

// Validate checks mapfile invariants: DAGCount matches the DAG list,
// DAG IDs are unique and in-range for the module, path bits fit the
// record format and are unique per DAG, successor references resolve
// to real blocks without self edges or duplicates, and line spans stay
// inside their block's instruction range. Deeper semantic checks (map
// edges vs the real CFG, probe placement) belong to internal/verify.
func (mf *MapFile) Validate() error {
	if uint32(len(mf.DAGs)) != mf.DAGCount {
		return fmt.Errorf("mapfile %s: %d DAGs but DAGCount=%d",
			mf.ModuleName, len(mf.DAGs), mf.DAGCount)
	}
	byID := make(map[uint32]int, len(mf.DAGs))
	for i, d := range mf.DAGs {
		if d.ID >= mf.DAGCount {
			return fmt.Errorf("mapfile %s: DAG %d has ID %d out of range [0,%d)",
				mf.ModuleName, i, d.ID, mf.DAGCount)
		}
		if prev, dup := byID[d.ID]; dup {
			return fmt.Errorf("mapfile %s: DAGs %d and %d share ID %d",
				mf.ModuleName, prev, i, d.ID)
		}
		byID[d.ID] = i
		if len(d.Blocks) == 0 {
			return fmt.Errorf("mapfile %s: DAG %d has no blocks", mf.ModuleName, i)
		}
		seen := map[int8]int{}
		for bi, b := range d.Blocks {
			if b.Start >= b.End {
				return fmt.Errorf("mapfile %s: DAG %d block %d empty range [%d,%d)",
					mf.ModuleName, i, bi, b.Start, b.End)
			}
			if b.Bit >= trace.NumPathBits {
				return fmt.Errorf("mapfile %s: DAG %d block %d bit %d exceeds record capacity (%d path bits)",
					mf.ModuleName, i, bi, b.Bit, trace.NumPathBits)
			}
			if b.Bit >= 0 {
				if prev, dup := seen[b.Bit]; dup {
					return fmt.Errorf("mapfile %s: DAG %d: blocks %d and %d share bit %d",
						mf.ModuleName, i, prev, bi, b.Bit)
				}
				seen[b.Bit] = bi
			}
			succSeen := map[int]bool{}
			for _, s := range b.Succs {
				if s < 0 || s >= len(d.Blocks) {
					return fmt.Errorf("mapfile %s: DAG %d block %d bad successor %d",
						mf.ModuleName, i, bi, s)
				}
				if s == bi {
					return fmt.Errorf("mapfile %s: DAG %d block %d lists itself as successor",
						mf.ModuleName, i, bi)
				}
				if succSeen[s] {
					return fmt.Errorf("mapfile %s: DAG %d block %d lists successor %d twice",
						mf.ModuleName, i, bi, s)
				}
				succSeen[s] = true
			}
			for si, sp := range b.Lines {
				if sp.Start >= sp.End || sp.Start < b.Start || sp.End > b.End {
					return fmt.Errorf("mapfile %s: DAG %d block %d line span %d [%d,%d) outside block [%d,%d)",
						mf.ModuleName, i, bi, si, sp.Start, sp.End, b.Start, b.End)
				}
			}
		}
	}
	return nil
}

// Save writes the mapfile as JSON.
func (mf *MapFile) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(mf)
}

// LoadMapFile reads a JSON mapfile.
func LoadMapFile(r io.Reader) (*MapFile, error) {
	var mf MapFile
	if err := json.NewDecoder(r).Decode(&mf); err != nil {
		return nil, fmt.Errorf("mapfile: %w", err)
	}
	return &mf, mf.Validate()
}

// ReadMapFile loads and validates the mapfile at path; a decode or
// validation error names the path.
func ReadMapFile(path string) (*MapFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	mf, err := LoadMapFile(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return mf, nil
}

// WriteMapFile saves mf to path.
func WriteMapFile(path string, mf *MapFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := mf.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// DAGBaseFile assigns fixed DAG ID bases to module names so that
// modules built from the same source tree never collide and never
// need load-time rebasing (paper §2.3).
type DAGBaseFile struct {
	Bases map[string]uint32 `json:"bases"`
}

// SaveDAGBases writes the base file as JSON.
func (d *DAGBaseFile) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}

// LoadDAGBases reads a DAG base file.
func LoadDAGBases(r io.Reader) (*DAGBaseFile, error) {
	var d DAGBaseFile
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("dag base file: %w", err)
	}
	return &d, nil
}
