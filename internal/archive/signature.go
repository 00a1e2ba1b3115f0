// Crash signatures: a stable fingerprint of *which fault* a snap
// captured, so that duplicate crashes from different hosts, processes,
// and days land in the same warehouse bucket. The fingerprint is
// computed from the reconstructed fault-directed view (paper §4.3.3):
// the faulting module's checksum, the block path of line events
// leading into the fault, and the top of the call hierarchy above it.
// Reconstruction is deterministic (the parallel pipeline is
// byte-identical to the sequential oracle), so the same crash
// fingerprints identically no matter how or where it was ingested.
package archive

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"traceback/internal/recon"
	"traceback/internal/snap"
)

// sigPathLen is how many line events leading into the fault feed the
// fingerprint — long enough to separate faults reached through
// different block paths, short enough that loop-count jitter far from
// the fault cannot split a bucket (Repeat counts are excluded for the
// same reason).
const sigPathLen = 16

// sigFrameLen caps the call-hierarchy frames hashed.
const sigFrameLen = 8

// Frame is one call-hierarchy entry of a signature, outermost last.
type Frame struct {
	Module string `json:"module"`
	File   string `json:"file"`
	Line   uint32 `json:"line"`
	Func   string `json:"func,omitempty"`
}

func (f Frame) String() string {
	return fmt.Sprintf("%s %s:%d %s", f.Module, f.File, f.Line, f.Func)
}

// Signature is a computed crash fingerprint. ID is the bucket key.
type Signature struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	// Weak marks a metadata-only fallback fingerprint, used when the
	// snap could not be reconstructed (mapfiles missing or corrupt).
	Weak   bool    `json:"weak,omitempty"`
	Frames []Frame `json:"frames,omitempty"`
}

// reasonKind reduces a snap's Reason ("exception SIGSEGV", "group
// fault in petstore", ...) to its trigger class, the part that is
// stable across occurrences of the same fault.
func reasonKind(reason string) string {
	if i := strings.IndexByte(reason, ' '); i >= 0 {
		return reason[:i]
	}
	return reason
}

// FaultView is the fault-directed sequence a signature hashes and the
// triage clustering distance compares: the call hierarchy above the
// fault (innermost first) and the block path of line events leading
// into it (fault first, Repeat counts excluded).
type FaultView struct {
	Frames []Frame
	// Path entries are "module:file:line" block identities, newest
	// (faulting) first.
	Path []string
}

// FaultViewOf extracts the fault-directed view from a reconstructed
// snap, on the thread recon.Render leads with (pt.FaultThread()). ok
// is false when no line history exists (weak-signature territory).
func FaultViewOf(pt *recon.ProcessTrace) (FaultView, bool) {
	t := pt.FaultThread()
	if t == nil {
		return FaultView{}, false
	}

	v := recon.NewView(t)
	// Walk back to the newest line event — the faulting line when the
	// history ends in an exception record.
	for v.Current() != nil && v.Current().Kind != recon.EvLine {
		if !v.StepBack() {
			break
		}
	}
	cur := v.Current()
	if cur == nil || cur.Kind != recon.EvLine {
		return FaultView{}, false
	}

	// Call hierarchy above the fault: step back out repeatedly, taking
	// the caller's line each time.
	frames := []Frame{frameOf(cur)}
	for len(frames) < sigFrameLen {
		if !v.StepBackOut() {
			break
		}
		if e := v.Current(); e != nil && e.Kind == recon.EvLine {
			frames = append(frames, frameOf(e))
		}
	}

	// Block path into the fault: the last sigPathLen line events.
	var path []string
	for i := len(t.Events) - 1; i >= 0 && len(path) < sigPathLen; i-- {
		e := &t.Events[i]
		if e.Kind == recon.EvLine {
			path = append(path, fmt.Sprintf("%s:%s:%d", e.Module, e.File, e.Line))
		}
	}
	return FaultView{Frames: frames, Path: path}, true
}

// FromTrace fingerprints a reconstructed snap from its fault-directed
// view, falling back to the weak metadata signature when the snap has
// no line history.
func FromTrace(pt *recon.ProcessTrace) Signature {
	s := pt.Snap
	fv, ok := FaultViewOf(pt)
	if !ok {
		return weakSignature(s)
	}
	cur := fv.Frames[0]

	h := sha256.New()
	fmt.Fprintf(h, "kind=%s signal=%d\n", reasonKind(s.Reason), s.Signal)
	fmt.Fprintf(h, "module=%s checksum=%s\n", cur.Module, checksumOf(s, cur.Module))
	for _, p := range fv.Path {
		fmt.Fprintf(h, "path %s\n", p)
	}
	for _, f := range fv.Frames {
		fmt.Fprintf(h, "frame %s\n", f)
	}

	title := fmt.Sprintf("%s at %s:%d", reasonKind(s.Reason), cur.File, cur.Line)
	if cur.Func != "" {
		title += " in " + cur.Func
	}
	title += " (" + cur.Module + ")"
	return Signature{
		ID:     hex.EncodeToString(h.Sum(nil))[:16],
		Title:  title,
		Frames: fv.Frames,
	}
}

// SignSnap is the single signing funnel shared by every ingest path —
// `tbstore ingest` and the tbcollectd upload handler: reconstruct s
// on maps (pass a *recon.MapCache to share parses across snaps) and
// fingerprint the fault-directed view, degrading to the weak metadata
// signature when reconstruction is impossible (maps nil or missing the
// snap's modules). Reconstruction is deterministic, so a snap signs
// identically no matter which path ingested it — the property the
// loopback parity gates and `tbstore ingest`'s own test assert byte
// for byte.
func SignSnap(s *snap.Snap, maps recon.MapResolver) Signature {
	if maps != nil {
		if pt, err := recon.Reconstruct(s, maps); err == nil {
			return FromTrace(pt)
		}
	}
	return weakSignature(s)
}

// weakSignature buckets by snap metadata alone: trigger class, signal,
// and the loaded-module checksum set. It cannot separate two distinct
// faults with identical metadata, but it keeps un-reconstructable
// snaps grouped rather than lost.
func weakSignature(s *snap.Snap) Signature {
	sums := make([]string, 0, len(s.Modules))
	for _, mi := range s.Modules {
		sums = append(sums, mi.Checksum)
	}
	sort.Strings(sums)
	h := sha256.New()
	fmt.Fprintf(h, "weak kind=%s signal=%d proc=%s\n", reasonKind(s.Reason), s.Signal, s.Process)
	for _, sum := range sums {
		fmt.Fprintf(h, "module %s\n", sum)
	}
	return Signature{
		ID:    hex.EncodeToString(h.Sum(nil))[:16],
		Title: fmt.Sprintf("%s (%s, unreconstructed)", s.Reason, s.Process),
		Weak:  true,
	}
}

func frameOf(e *recon.Event) Frame {
	return Frame{Module: e.Module, File: e.File, Line: e.Line, Func: e.Func}
}

func checksumOf(s *snap.Snap, moduleName string) string {
	for _, mi := range s.Modules {
		if mi.Name == moduleName {
			return mi.Checksum
		}
	}
	return ""
}
