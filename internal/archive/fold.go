// The bucket fold: the one rule that combines occurrences of a crash
// signature into one Bucket. The journal reduction folds every ingest
// record in as a bucket of one occurrence (state.apply), and Fold
// folds whole bucket lists — the union of shard indexes the gate
// serves (shard.MergeBuckets). Each part of the rule depends only on
// the multiset of occurrences folded in, never on their order or
// grouping, which is what makes the index deterministic under
// concurrent ingest and the fold of N shard indexes equal to a single
// node's:
//
//   - Count sums; FirstSeen and LastSeen take the min and the max;
//   - Hosts is the sorted union;
//   - Windows sum per start, then every window more than WindowCap-1
//     windows behind the newest is evicted (windows.go);
//   - Snaps are the union by content address in (time, sum) order,
//     and Rep is the first of them.
package archive

import (
	"cmp"
	"slices"
	"sort"
	"strings"
)

// Fold folds every bucket of lists into one bucket per signature and
// returns them in triage order (count descending, then signature), the
// order Buckets returns. Each bucket's lists must be in canonical
// order, as Buckets returns them. The lists are only read; the result
// shares no memory with them.
func Fold(lists ...[]Bucket) []Bucket {
	folded := map[string]*Bucket{}
	for _, list := range lists {
		for i := range list {
			b := folded[list[i].Sig]
			if b == nil {
				b = &Bucket{}
				folded[list[i].Sig] = b
			}
			b.fold(&list[i])
		}
	}
	out := make([]Bucket, 0, len(folded))
	for _, b := range folded {
		out = append(out, *b)
	}
	sortTriage(out)
	return out
}

// fold adds the occurrences o records to b; an empty b (no signature
// yet) takes o's identity. o's lists must be in canonical order, as in
// every Bucket this package returns. They are only read, and b's lists
// grow in place, so folding one occurrence copies none of b's lists.
func (b *Bucket) fold(o *Bucket) {
	if b.Sig == "" {
		b.Sig, b.Title, b.Weak = o.Sig, o.Title, o.Weak
		b.FirstSeen, b.LastSeen = o.FirstSeen, o.LastSeen
	}
	b.Count += o.Count
	b.FirstSeen = min(b.FirstSeen, o.FirstSeen)
	b.LastSeen = max(b.LastSeen, o.LastSeen)
	b.Hosts = mergeSorted(b.Hosts, o.Hosts, func(x, y *string) int { return strings.Compare(*x, *y) }, nil)

	b.Windows = mergeSorted(b.Windows, o.Windows,
		func(x, y *RateWindow) int { return cmp.Compare(x.Start, y.Start) },
		func(into, w *RateWindow) { into.Count += w.Count })
	if n := len(b.Windows); n > 0 {
		h := horizonStart(b.Windows[n-1].Start)
		b.Windows = slices.Delete(b.Windows, 0, sort.Search(n, func(i int) bool { return b.Windows[i].Start >= h }))
	}

	b.Snaps = mergeSorted(b.Snaps, o.Snaps, refOrder, nil)
	b.Rep = ""
	if len(b.Snaps) > 0 {
		b.Rep = b.Snaps[0].Sum
	}
}

// mergeSorted merges the sorted list src into the sorted list dst and
// returns dst. An element of src equal to one of dst is combined into
// it (combine nil: dropped); any other is inserted at its place. dst
// grows by the inserted elements only, filled from the back so each
// element moves once; src is only read.
func mergeSorted[T any](dst, src []T, order func(x, y *T) int, combine func(into, from *T)) []T {
	if len(dst) == 0 {
		return append(dst, src...)
	}
	added := 0
	for i, j := 0, 0; j < len(src); {
		if i == len(dst) {
			added += len(src) - j
			break
		}
		switch c := order(&dst[i], &src[j]); {
		case c < 0:
			i++
		case c > 0:
			added++
			j++
		default:
			if combine != nil {
				combine(&dst[i], &src[j])
			}
			i, j = i+1, j+1
		}
	}
	if added == 0 {
		return dst
	}
	n := len(dst)
	dst = slices.Grow(dst, added)[:n+added]
	for i, j, k := n-1, len(src)-1, n+added-1; j >= 0; k-- {
		c := -1
		if i >= 0 {
			c = order(&dst[i], &src[j])
		}
		if c < 0 {
			dst[k] = src[j]
			j--
			continue
		}
		dst[k] = dst[i]
		i--
		if c == 0 {
			j--
		}
	}
	return dst
}

// refOrder is the canonical order of a bucket's blob refs: oldest
// first, ties broken by content address.
func refOrder(x, y *BlobRef) int {
	if c := cmp.Compare(x.Time, y.Time); c != 0 {
		return c
	}
	return strings.Compare(x.Sum, y.Sum)
}

// sortTriage puts buckets in triage order: most occurrences first,
// ties by signature — the `tbstore top` order.
func sortTriage(buckets []Bucket) {
	sort.Slice(buckets, func(i, j int) bool {
		if buckets[i].Count != buckets[j].Count {
			return buckets[i].Count > buckets[j].Count
		}
		return buckets[i].Sig < buckets[j].Sig
	})
}
