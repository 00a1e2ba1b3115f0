// Similarity clustering: exact signature bucketing fragments
// near-duplicate faults — the same root cause reached with a
// different wrap point, loop depth, or thread interleaving hashes to
// a different signature because one block of the hashed path moved.
// This file merges those fragments back together by comparing the
// fault-directed views themselves: each bucket's exemplar (its
// representative snap) is reconstructed once through the recon
// pipeline, its frame/block sequence extracted
// (archive.FaultViewOf), and buckets whose sequences sit within a
// weighted-edit-distance threshold are unioned into one cluster.
//
// The distance is a weighted Levenshtein over the fault-directed
// token sequence, fault end first: call-hierarchy frames weigh
// frameWeight (a changed caller is strong evidence of a different
// fault) and block-path tokens weigh pathWeight decayed by distance
// from the fault (a changed block far up the path is weak evidence —
// exactly where wrap points and interleavings differ). Distances are
// normalized to [0, 1] by total sequence weight and cached keyed by
// the pair of exemplar content addresses, so repeated queries over a
// growing warehouse only pay for new content.
package triage

import (
	"sort"
	"time"

	"traceback/internal/archive"
	"traceback/internal/recon"
)

const (
	frameWeight = 3.0
	pathWeight  = 1.0
	// pathDecay halves a path token's weight every pathDecay steps
	// away from the fault.
	pathDecay = 8
)

// token is one comparable element of a fault-directed sequence.
type token struct {
	s string
	w float64
}

// viewEntry caches one bucket's extracted sequence, keyed by the
// representative blob so a changed rep (GC, new earliest snap)
// invalidates it.
type viewEntry struct {
	rep  string
	toks []token
	sumW float64
	ok   bool
}

// tokensOf flattens a fault view into the weighted token sequence.
func tokensOf(fv archive.FaultView) ([]token, float64) {
	var toks []token
	var sum float64
	for _, f := range fv.Frames {
		t := token{s: "f " + f.String(), w: frameWeight}
		toks = append(toks, t)
		sum += t.w
	}
	for i, p := range fv.Path {
		w := pathWeight / float64(uint(1)<<uint(i/pathDecay))
		toks = append(toks, token{s: "p " + p, w: w})
		sum += w
	}
	return toks, sum
}

// distance is the normalized weighted edit distance between two token
// sequences: delete/insert cost a token's weight, substitution the
// max of the two, normalized by the summed weight of both sequences.
// 0 means identical; disjoint sequences approach 1.
func distance(a, b []token, sumA, sumB float64) float64 {
	if sumA+sumB == 0 {
		return 0
	}
	n, m := len(a), len(b)
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	for j := 1; j <= m; j++ {
		prev[j] = prev[j-1] + b[j-1].w
	}
	for i := 1; i <= n; i++ {
		cur[0] = prev[0] + a[i-1].w
		for j := 1; j <= m; j++ {
			del := prev[j] + a[i-1].w
			ins := cur[j-1] + b[j-1].w
			sub := prev[j-1]
			if a[i-1].s != b[j-1].s {
				if a[i-1].w > b[j-1].w {
					sub += a[i-1].w
				} else {
					sub += b[j-1].w
				}
			}
			d := del
			if ins < d {
				d = ins
			}
			if sub < d {
				d = sub
			}
			cur[j] = d
		}
		prev, cur = cur, prev
	}
	return prev[m] / (sumA + sumB)
}

// Member is one bucket inside a cluster.
type Member struct {
	Sig   string `json:"sig"`
	Title string `json:"title"`
	Count uint64 `json:"count"`
	// Distance is the normalized fault-view distance to the cluster
	// lead (0 for the lead itself; -1 when no view was comparable).
	Distance float64 `json:"distance"`
}

// Cluster groups near-duplicate signatures around a lead exemplar.
type Cluster struct {
	// Lead is the signature of the highest-count member (ties broken
	// by signature) — the exemplar `tbstore show` should start from.
	Lead  string `json:"lead"`
	Title string `json:"title"`
	// Count sums every member's occurrences.
	Count   uint64   `json:"count"`
	Members []Member `json:"members"`
	// Unclustered marks a singleton whose exemplar could not be
	// reconstructed (weak bucket, evicted rep, or no maps): it was
	// never compared, not proven unique.
	Unclustered bool `json:"unclustered,omitempty"`
}

// ClusterReport is one clustering pass over the warehouse.
type ClusterReport struct {
	V int `json:"v"`
	// Threshold echoes the merge distance used.
	Threshold float64 `json:"threshold"`
	// Clusters is ordered by summed count desc, then lead asc.
	Clusters []Cluster `json:"clusters"`
}

// Clusters groups the warehouse's buckets by fault-view similarity.
// Deterministic given the index and the blobs it references.
func (a *Analyzer) Clusters() (*ClusterReport, error) {
	t0 := time.Now()
	defer func() { a.met.clusterNanos.Observe(uint64(time.Since(t0))) }()
	a.met.clusterBuilds.Inc()

	buckets := a.arch.Buckets()
	// Pair enumeration in signature order so cache keys and union
	// order are stable; the final report order is imposed at the end.
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].Sig < buckets[j].Sig })

	views := make([]*viewEntry, len(buckets))
	for i := range buckets {
		views[i] = a.viewFor(&buckets[i])
	}

	// Single-linkage union-find over comparable pairs.
	parent := make([]int, len(buckets))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < len(buckets); i++ {
		if !views[i].ok {
			continue
		}
		for j := i + 1; j < len(buckets); j++ {
			if !views[j].ok {
				continue
			}
			if a.pairDistance(views[i], views[j]) <= clusterDistance {
				ri, rj := find(i), find(j)
				if ri != rj {
					parent[rj] = ri
				}
			}
		}
	}

	groups := map[int][]int{}
	for i := range buckets {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	rep := &ClusterReport{V: 1, Threshold: clusterDistance}
	for _, idxs := range groups {
		c := buildCluster(buckets, views, idxs)
		// Recompute member distances against the chosen lead.
		lead := -1
		for _, i := range idxs {
			if buckets[i].Sig == c.Lead {
				lead = i
			}
		}
		for mi := range c.Members {
			c.Members[mi].Distance = -1
			if lead < 0 || !views[lead].ok {
				continue
			}
			for _, i := range idxs {
				if buckets[i].Sig == c.Members[mi].Sig && views[i].ok {
					c.Members[mi].Distance = a.pairDistance(views[lead], views[i])
				}
			}
		}
		rep.Clusters = append(rep.Clusters, c)
	}
	sort.Slice(rep.Clusters, func(i, j int) bool {
		if rep.Clusters[i].Count != rep.Clusters[j].Count {
			return rep.Clusters[i].Count > rep.Clusters[j].Count
		}
		return rep.Clusters[i].Lead < rep.Clusters[j].Lead
	})
	return rep, nil
}

// buildCluster assembles one cluster from member indexes.
func buildCluster(buckets []archive.Bucket, views []*viewEntry, idxs []int) Cluster {
	var c Cluster
	for _, i := range idxs {
		b := &buckets[i]
		c.Count += b.Count
		c.Members = append(c.Members, Member{Sig: b.Sig, Title: b.Title, Count: b.Count})
	}
	sort.Slice(c.Members, func(i, j int) bool {
		if c.Members[i].Count != c.Members[j].Count {
			return c.Members[i].Count > c.Members[j].Count
		}
		return c.Members[i].Sig < c.Members[j].Sig
	})
	c.Lead = c.Members[0].Sig
	c.Title = c.Members[0].Title
	if len(idxs) == 1 {
		for _, i := range idxs {
			c.Unclustered = !views[i].ok
		}
	}
	return c
}

// viewFor returns (computing and caching if needed) a bucket's
// fault-view tokens. A bucket with no resident rep, a weak signature,
// or a failed reconstruction yields ok=false.
func (a *Analyzer) viewFor(b *archive.Bucket) *viewEntry {
	a.mu.Lock()
	if e, hit := a.views[b.Sig]; hit && e.rep == b.Rep {
		a.mu.Unlock()
		return e
	}
	a.mu.Unlock()

	e := &viewEntry{rep: b.Rep}
	if b.Rep != "" && !b.Weak && a.maps != nil {
		if s, err := a.arch.LoadSnap(b.Rep); err == nil {
			if pt, err := recon.Reconstruct(s, a.maps); err == nil {
				if fv, ok := archive.FaultViewOf(pt); ok {
					e.toks, e.sumW = tokensOf(fv)
					e.ok = true
					a.met.exemplars.Inc()
				}
			}
		}
	}
	a.mu.Lock()
	a.views[b.Sig] = e
	a.mu.Unlock()
	return e
}

// pairDistance computes (or serves from cache) the normalized
// distance between two cached views, keyed by exemplar content
// addresses so the cache survives bucket growth.
func (a *Analyzer) pairDistance(x, y *viewEntry) float64 {
	ka, kb := x.rep, y.rep
	if ka > kb {
		ka, kb = kb, ka
	}
	key := ka + "|" + kb
	a.mu.Lock()
	if d, hit := a.dists[key]; hit {
		a.mu.Unlock()
		a.met.distHits.Inc()
		return d
	}
	a.mu.Unlock()
	d := distance(x.toks, y.toks, x.sumW, y.sumW)
	a.met.distMisses.Inc()
	a.mu.Lock()
	a.dists[key] = d
	a.mu.Unlock()
	return d
}
