// Package shard is the placement and merge layer of the multi-node
// snap warehouse: the pure, coordination-free core that lets N
// tbcollectd instances act as one fleet-scale archive.
//
// Placement (ring.go) is computed from the SHA-256 content address
// every agent already holds: the first 32 bits of the hex sum index a
// range-partitioned ring, so any process that knows the shard count
// derives the same owner for the same snap — no directory service, no
// rendezvous round trip, no coordination of any kind. Growing the ring
// from N to N+1 shards moves only the prefix ranges that the new
// partition boundaries cut through, which is what keeps resharding a
// bounded blob copy rather than a full reshuffle.
//
// Merging (merge.go) is the read side of the same bet: the warehouse
// index is an order-independent reduction of journal records, so the
// union of N shard indexes is itself a pure fold — MergeBuckets
// reproduces, bucket for bucket and byte for byte, the index a single
// node would have built from the same ingest events. The fan-out query
// tier (internal/shard/gate) is thin precisely because this fold does
// all the semantic work.
package shard
