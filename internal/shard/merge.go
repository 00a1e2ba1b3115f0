// The gate's merge semantics: folding N shard indexes into the index
// a single node would have built. The warehouse index is already an
// order-independent fold of ingest events (internal/archive, fold.go),
// so a shard's bucket is that fold restricted to the events the shard
// saw — and merging is the same fold run over the shard buckets. Snaps
// union by content address, because the same blob can be resident on
// two shards after an agent failover.
//
// When placement held (no failovers), every unique sum was journaled
// on exactly one shard and the merged buckets are byte-identical to
// the single-node reduction (loopback.TestShardedCampaign holds it).
// After a failover the same content may have journaled on two shards;
// Count then exceeds the single-node count (each landing was a real
// ingest event), but no snap and no bucket is ever lost.
package shard

import "traceback/internal/archive"

// MergeBuckets folds per-shard bucket lists into the fleet-wide
// bucket list, in the canonical triage order (count desc, signature
// asc) that archive.Buckets and the daemon's /v1/buckets use: it is
// archive.Fold, which leaves the lists as it found them.
func MergeBuckets(shards ...[]archive.Bucket) []archive.Bucket {
	return archive.Fold(shards...)
}

// NewestTime reports the newest snap time across a bucket list (0 for
// none) — the deterministic "now" triage classifies a snapshot
// against: derived from the list itself, so the two can never be from
// different states.
func NewestTime(buckets []archive.Bucket) uint64 {
	var newest uint64
	for i := range buckets {
		if buckets[i].LastSeen > newest {
			newest = buckets[i].LastSeen
		}
	}
	return newest
}
