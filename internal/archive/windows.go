// Crash-rate windows: each bucket carries a time-bucketed occurrence
// histogram alongside its total count, so the triage layer
// (internal/triage) can tell a steady background fault from one that
// is new or spiking without re-reading the journal. Time is the
// snap's VM-cycle clock (the only clock the system has), chopped into
// fixed-width windows; a bucket retains its most recent WindowCap
// windows.
//
// The histogram is part of the index, so it must share the index's
// central property: the reduction is order-independent. That holds
// because the retained set is a pure function of the multiset of
// ingest times — window w survives iff w lies within WindowCap
// windows of the newest window the bucket ever saw — and a record is
// counted iff its window survives. The bucket fold (fold.go) sums
// windows per start and then evicts against the newest, so a stale
// record is evicted as it arrives (the newest window was already
// known) or later (the newest window arrived afterwards), and either
// way the final windows are identical: any -jobs width, any journal
// replay and any grouping of shard indexes yield the same windows.
package archive

const (
	// WindowWidth is the rate-window span in snap-time cycles. The
	// example scenarios run 0.2–5M cycles, so 100k-cycle windows give
	// a fleet run tens of windows of resolution.
	WindowWidth uint64 = 100_000
	// WindowCap bounds the windows a bucket retains: occurrences older
	// than WindowCap windows behind the bucket's newest window fall
	// out of the histogram (the total Count still remembers them).
	WindowCap = 64
)

// RateWindow is one fixed-width time bucket of ingest occurrences.
// Start is the window's inclusive start time, a multiple of
// WindowWidth; Count is how many ingest events landed in
// [Start, Start+WindowWidth).
type RateWindow struct {
	Start uint64 `json:"start"`
	Count uint64 `json:"count"`
}

// windowStart floors a snap time to its window's start.
func windowStart(t uint64) uint64 { return t - t%WindowWidth }

// horizonStart is the oldest window start still retained given the
// newest window start seen — windows strictly older than
// newest-(WindowCap-1) windows are evicted.
func horizonStart(newest uint64) uint64 {
	span := uint64(WindowCap-1) * WindowWidth
	if newest < span {
		return 0
	}
	return newest - span
}

// WindowCount sums a bucket's occurrences in windows whose start lies
// in [from, to] (inclusive on both ends, in window-start units).
func (b *Bucket) WindowCount(from, to uint64) uint64 {
	var n uint64
	for _, w := range b.Windows {
		if w.Start >= from && w.Start <= to {
			n += w.Count
		}
	}
	return n
}
