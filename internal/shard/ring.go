package shard

import (
	"fmt"
	"strconv"
)

// PrefixBits is how much of the content address places a snap: the
// leading 32 bits (8 hex digits) of its SHA-256. SHA-256 output is
// uniform, so range-partitioning this prefix balances shards to within
// statistical noise without looking at the rest of the sum.
const PrefixBits = 32

// prefixSpace is the size of the placement key space, 2^PrefixBits.
const prefixSpace = uint64(1) << PrefixBits

// maxShards bounds the ring size so the fixed-point arithmetic in
// Place stays comfortably inside uint64.
const maxShards = 1 << 16

// Ring is a fixed-size shard ring: a deterministic, stateless map
// from content addresses to shard ordinals [0, N). Two Rings built
// with the same N agree everywhere, which is the whole coordination
// story — agents, gates, and checkers each build their own.
type Ring struct {
	n int
}

// NewRing builds a ring over n shards.
func NewRing(n int) (*Ring, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: ring needs at least 1 shard, got %d", n)
	}
	if n > maxShards {
		return nil, fmt.Errorf("shard: ring of %d shards exceeds the supported maximum %d", n, maxShards)
	}
	return &Ring{n: n}, nil
}

// Prefix extracts the placement key from a SHA-256 hex sum: its first
// 8 hex digits as a 32-bit integer. The sum must be at least 8
// lowercase-hex characters (every content address the archive produces
// is 64).
func Prefix(sum string) (uint64, error) {
	if len(sum) < PrefixBits/4 {
		return 0, fmt.Errorf("shard: content address %q too short for placement", sum)
	}
	p, err := strconv.ParseUint(sum[:PrefixBits/4], 16, PrefixBits)
	if err != nil {
		return 0, fmt.Errorf("shard: content address %q is not hex: %v", sum, err)
	}
	return p, nil
}

// Place maps a content address onto its home shard. The partition is
// shard = prefix·N / 2^32 — each shard owns one contiguous prefix
// range, and the map is a pure function of (sum, N).
func (r *Ring) Place(sum string) (int, error) {
	p, err := Prefix(sum)
	if err != nil {
		return 0, err
	}
	return r.place(p), nil
}

func (r *Ring) place(prefix uint64) int {
	return int(prefix * uint64(r.n) / prefixSpace)
}
