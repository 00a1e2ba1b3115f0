// Package trace defines the 32-bit trace record format of Figure 1 of
// the paper and the record mining used by reconstruction.
//
// Record words:
//
//	31 30........10 9.........0
//	 1 |   DAG ID  | path bits |   DAG record
//	 1  1 1 1 ... 1 1 1 1 ... 1    buffer-end sentinel (all ones)
//	 0  0 0 0 ... 0 0 0 0 ... 0    invalid (zeroed sub-buffer)
//	 1 | 0x1FFFFE  | x x ... x |   bad-DAG record (ID space exhausted)
//	 0 | kind | len | small    |   extended record header
//	 0 | 0x7F | len | kind     |   extended record trailer
//
// A heavyweight probe writes a pre-shifted DAG record; lightweight
// probes OR their assigned bit into the low 10 bits. Extended records
// (SYNC, timestamps, exceptions, thread lifetimes) span multiple words
// and carry a trailer so that reconstruction can mine a buffer
// back-to-front — newest record to oldest — without ambiguity.
package trace

import "fmt"

// Word is one 32-bit trace buffer slot.
type Word = uint32

// Fixed words and field layout.
const (
	Sentinel Word = 0xFFFFFFFF // buffer-end / sub-buffer-end marker
	Invalid  Word = 0x00000000 // zeroed, not-yet-written slot

	// NumPathBits is the number of lightweight-probe bits per DAG
	// record; it bounds the number of probe-carrying blocks per DAG.
	NumPathBits = 10
	// PathMask extracts the path bits.
	PathMask Word = 1<<NumPathBits - 1

	// DAGIDBits is the width of the DAG ID field (paper §2.3).
	DAGIDBits = 21
	// MaxDAGID is the largest assignable DAG ID.
	MaxDAGID uint32 = BadDAGID - 1
	// BadDAGID is the reserved "bad DAG" ID used when the runtime
	// cannot find a distinct ID range for a module (paper §2.3).
	BadDAGID uint32 = 1<<DAGIDBits - 2

	dagFlag Word = 1 << 31
)

// DAGWord builds a DAG record word with the given ID and path bits.
// Heavyweight probes embed DAGWord(id, 0) as their store immediate.
func DAGWord(id uint32, bits Word) Word {
	return dagFlag | (id&(1<<DAGIDBits-1))<<NumPathBits | (bits & PathMask)
}

// IsDAG reports whether w is a DAG record (including bad-DAG).
func IsDAG(w Word) bool { return w&dagFlag != 0 && w != Sentinel }

// DAGID extracts the DAG ID of a DAG record.
func DAGID(w Word) uint32 { return uint32(w>>NumPathBits) & (1<<DAGIDBits - 1) }

// PathBits extracts the lightweight-probe bits of a DAG record.
func PathBits(w Word) Word { return w & PathMask }

// Kind identifies an extended record type.
type Kind uint8

// Extended record kinds.
const (
	KindNone         Kind = 0
	KindTimestamp    Kind = 1 // explicit timestamp probe
	KindSync         Kind = 2 // RPC / cross-runtime SYNC (paper §5.1)
	KindException    Kind = 3 // exception/signal with faulting code address
	KindExceptionEnd Kind = 4 // control returned from a signal handler
	KindThreadStart  Kind = 5 // buffer (re)assigned to a thread
	KindThreadEnd    Kind = 6 // thread terminated / buffer freed
	KindSnapMark     Kind = 7 // snap taken while the thread was live
	// KindReissue marks that the immediately following DAG record is
	// a re-issue of the in-progress run's record: the runtime wrote
	// extended records mid-run, which moved the buffer pointer, so it
	// duplicates the current DAG record (with bits accumulated so
	// far) to give the remaining lightweight probes a valid slot.
	// Reconstruction merges the re-issued record into its original
	// instead of treating it as a new execution of the DAG.
	KindReissue Kind = 8
	// KindSyscallMark is the timestamp probe the runtime inserts at
	// synchronization/OS artifacts (paper §3.5); it carries the code
	// address so hang views can name the exact blocking line.
	KindSyscallMark Kind = 9

	trailerTag = 0x7F
	maxKind    = 0x7E
)

func (k Kind) String() string {
	switch k {
	case KindNone:
		return "dag"
	case KindTimestamp:
		return "timestamp"
	case KindSync:
		return "sync"
	case KindException:
		return "exception"
	case KindExceptionEnd:
		return "exception-end"
	case KindThreadStart:
		return "thread-start"
	case KindThreadEnd:
		return "thread-end"
	case KindSnapMark:
		return "snap-mark"
	case KindReissue:
		return "reissue"
	case KindSyscallMark:
		return "syscall-mark"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Record is one mined trace record. For DAG records Kind is KindNone
// and DAGID/Bits are set; for extended records Small and Payload carry
// the kind-specific content.
type Record struct {
	Kind    Kind
	DAGID   uint32
	Bits    Word
	Small   uint16
	Payload []Word
}

// BadDAG reports whether r is a bad-DAG record.
func (r Record) BadDAG() bool { return r.Kind == KindNone && r.DAGID == BadDAGID }

func header(kind Kind, length int, small uint16) Word {
	return Word(kind)<<24 | Word(length&0xFF)<<16 | Word(small)
}

func trailer(kind Kind, length int) Word {
	return Word(trailerTag)<<24 | Word(length&0xFF)<<16 | Word(kind)
}

// AppendExtended appends an extended record (header, payload, trailer)
// to buf and returns it. Length is payload length + 2 words.
func AppendExtended(buf []Word, kind Kind, small uint16, payload ...Word) []Word {
	if kind == KindNone || kind > maxKind {
		panic(fmt.Sprintf("trace: bad extended kind %d", kind))
	}
	length := len(payload) + 2
	if length > 0xFF {
		panic("trace: extended record too long")
	}
	buf = append(buf, header(kind, length, small))
	buf = append(buf, payload...)
	return append(buf, trailer(kind, length))
}

// SplitU64 splits v into (lo, hi) words.
func SplitU64(v uint64) (Word, Word) { return Word(v), Word(v >> 32) }

// JoinU64 rebuilds a uint64 from (lo, hi) words.
func JoinU64(lo, hi Word) uint64 { return uint64(hi)<<32 | uint64(lo) }

// MineBackward scans a contiguous span of trace words (oldest first,
// as prepared by reconstruction after removing sub-buffer boundaries)
// from its newest end backward, returning the recovered records
// newest-first. Mining stops at the first word that cannot be part of
// a well-formed record — typically the zeroed region of a fresh
// buffer, or the torn head of the oldest record after wrap-around
// overwrite.
func MineBackward(words []Word) []Record {
	var out []Record
	i := len(words) - 1
	for i >= 0 {
		w := words[i]
		switch {
		case w == Invalid:
			return out
		case w == Sentinel:
			i--
		case IsDAG(w):
			out = append(out, Record{Kind: KindNone, DAGID: DAGID(w), Bits: PathBits(w)})
			i--
		case w>>24 == trailerTag:
			length := int(w >> 16 & 0xFF)
			kind := Kind(w & 0xFF)
			if kind == KindNone || kind > maxKind {
				// No writer produces extended records with kind 0
				// (which would be indistinguishable from a DAG record
				// once mined) or kind 0x7F (the trailer tag itself).
				// Such a word is corruption, not a record.
				return out
			}
			hi := i - length + 1
			if length < 2 || hi < 0 {
				return out // torn record: head overwritten
			}
			h := words[hi]
			if h&dagFlag != 0 || Kind(h>>24) != kind || int(h>>16&0xFF) != length {
				return out // header does not match trailer: corruption
			}
			rec := Record{Kind: kind, Small: uint16(h)}
			if length > 2 {
				rec.Payload = append([]Word(nil), words[hi+1:i]...)
			}
			out = append(out, rec)
			i = hi - 1
		default:
			// A bare header or payload word with no trailer after it:
			// the record was torn by buffer wrap. Stop.
			return out
		}
	}
	return out
}

// Reverse reverses records in place (newest-first to oldest-first).
func Reverse(recs []Record) {
	for i, j := 0, len(recs)-1; i < j; i, j = i+1, j-1 {
		recs[i], recs[j] = recs[j], recs[i]
	}
}
