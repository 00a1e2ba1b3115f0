package recon

import "sort"

// MergedEvent tags an event with its thread for interleaved display.
type MergedEvent struct {
	TID uint32
	Ev  *Event
}

// Interleave produces a plausible cross-thread ordering (paper
// §4.3.2): events are ordered by their timestamp anchors; events
// sharing an anchor keep their within-thread order; threads tie-break
// by TID. The result is a total order consistent with the partial
// order the timestamp probes establish.
func Interleave(threads []*ThreadTrace) []MergedEvent {
	var out []MergedEvent
	for _, t := range threads {
		for i := range t.Events {
			out = append(out, MergedEvent{TID: t.TID, Ev: &t.Events[i]})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Ev.TS != b.Ev.TS {
			return a.Ev.TS < b.Ev.TS
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.Ev.AnchorSeq < b.Ev.AnchorSeq
	})
	return out
}
