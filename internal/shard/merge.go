// The gate's merge semantics: folding N shard indexes into the index
// a single node would have built. The warehouse index is already an
// order-independent reduction of ingest events (internal/archive), so
// a shard's bucket is just that reduction restricted to the events the
// shard saw — and merging is re-running the same fold over the union:
//
//   - Count sums (every ingest event counts once somewhere);
//   - FirstSeen/LastSeen take min/max;
//   - Hosts is the sorted union;
//   - Windows sum per start, then re-evict against the merged newest
//     window — a shard retains a superset of what the merged horizon
//     allows (its local newest is never ahead of the merged newest),
//     so eviction is the only correction merging ever needs;
//   - Snaps dedup by content address (the same blob can be resident on
//     two shards after an agent failover) and re-sort by (time, sum);
//   - Rep is the earliest-seen resident snap, exactly the single-node
//     rule.
//
// When placement held (no failovers), every unique sum was journaled
// on exactly one shard and the merged buckets are byte-identical to
// the single-node reduction (loopback.TestShardedCampaign holds it).
// After a failover the same content may have journaled on two shards;
// Count then exceeds the single-node count (each landing was a real
// ingest event), but no snap and no bucket is ever lost.
package shard

import (
	"sort"

	"traceback/internal/archive"
)

// MergeBuckets folds per-shard bucket lists into the fleet-wide
// bucket list, in the canonical triage order (count desc, signature
// asc) that archive.Buckets and the daemon's /v1/buckets use.
func MergeBuckets(shards ...[]archive.Bucket) []archive.Bucket {
	merged := map[string]*archive.Bucket{}
	for _, buckets := range shards {
		for i := range buckets {
			b := &buckets[i]
			m, ok := merged[b.Sig]
			if !ok {
				c := cloneBucket(b)
				merged[b.Sig] = &c
				continue
			}
			m.Count += b.Count
			if b.FirstSeen < m.FirstSeen {
				m.FirstSeen = b.FirstSeen
			}
			if b.LastSeen > m.LastSeen {
				m.LastSeen = b.LastSeen
			}
			m.Hosts = unionSorted(m.Hosts, b.Hosts)
			m.Windows = sumWindows(m.Windows, b.Windows)
			m.Snaps = unionRefs(m.Snaps, b.Snaps)
		}
	}

	out := make([]archive.Bucket, 0, len(merged))
	for _, m := range merged {
		m.Windows = evictWindows(m.Windows)
		if len(m.Snaps) > 0 {
			m.Rep = m.Snaps[0].Sum
		} else {
			m.Rep = ""
		}
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Sig < out[j].Sig
	})
	return out
}

// NewestTime reports the newest snap time across a bucket list — the
// list-wise analogue of archive.Archive.NewestTime, and the
// deterministic "now" triage classifies a snapshot against: derived
// from the list itself, so the two can never be from different states.
func NewestTime(buckets []archive.Bucket) uint64 {
	var newest uint64
	for i := range buckets {
		if buckets[i].LastSeen > newest {
			newest = buckets[i].LastSeen
		}
	}
	return newest
}

func cloneBucket(b *archive.Bucket) archive.Bucket {
	c := *b
	c.Hosts = append([]string(nil), b.Hosts...)
	c.Snaps = append([]archive.BlobRef(nil), b.Snaps...)
	c.Windows = append([]archive.RateWindow(nil), b.Windows...)
	return c
}

func unionSorted(a, b []string) []string {
	out := append([]string(nil), a...)
	for _, h := range b {
		i := sort.SearchStrings(out, h)
		if i < len(out) && out[i] == h {
			continue
		}
		out = append(out, "")
		copy(out[i+1:], out[i:])
		out[i] = h
	}
	return out
}

// sumWindows merges two sorted window lists by summing counts per
// start; eviction against the merged newest happens once at the end
// of the fold (evictWindows).
func sumWindows(a, b []archive.RateWindow) []archive.RateWindow {
	out := make([]archive.RateWindow, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Start < b[j].Start:
			out = append(out, a[i])
			i++
		case a[i].Start > b[j].Start:
			out = append(out, b[j])
			j++
		default:
			out = append(out, archive.RateWindow{Start: a[i].Start, Count: a[i].Count + b[j].Count})
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// evictWindows re-applies the single-node retention rule to a merged
// window list: only windows within WindowCap windows of the merged
// newest survive. A shard's local horizon is never ahead of the merged
// one, so merging can only ever need to drop windows, never resurrect
// them.
func evictWindows(ws []archive.RateWindow) []archive.RateWindow {
	if len(ws) == 0 {
		return ws
	}
	newest := ws[len(ws)-1].Start
	span := uint64(archive.WindowCap-1) * archive.WindowWidth
	h := uint64(0)
	if newest > span {
		h = newest - span
	}
	drop := 0
	for drop < len(ws) && ws[drop].Start < h {
		drop++
	}
	return ws[drop:]
}

func unionRefs(a, b []archive.BlobRef) []archive.BlobRef {
	seen := make(map[string]bool, len(a))
	for i := range a {
		seen[a[i].Sum] = true
	}
	out := a
	for i := range b {
		if !seen[b[i].Sum] {
			seen[b[i].Sum] = true
			out = append(out, b[i])
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		return out[i].Sum < out[j].Sum
	})
	return out
}
