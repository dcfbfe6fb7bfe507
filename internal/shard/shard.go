// Package shard provides the machinery of the keyed multi-register Store
// layer: hash-based routing of keys onto N independent atomic registers, the
// leader-handoff group commit (Group — also what batches cross-shard rounds
// and WAL fsyncs), and the codec that packs one shard's key→value table into
// a single register value.
//
// The layering mirrors the paper's cloud key-value scenario (Section 1.1):
// each shard is one robust atomic MWMR register hosted on the same S = 3t+1
// Byzantine-prone objects; a key's reads and writes are the projection of
// that register's atomic operations, so per-key atomicity follows directly
// from per-register atomicity.
package shard

import "fmt"

// Router maps keys onto shard indices 0..N-1 with FNV-1a hashing. The zero
// value routes everything to shard 0.
type Router struct {
	n int
}

// NewRouter returns a router over n shards (n ≥ 1).
func NewRouter(n int) (Router, error) {
	if n < 1 {
		return Router{}, fmt.Errorf("shard: need at least one shard, got %d", n)
	}
	return Router{n: n}, nil
}

// N returns the shard count.
func (r Router) N() int {
	if r.n == 0 {
		return 1
	}
	return r.n
}

// Locate returns key's shard index.
func (r Router) Locate(key string) int {
	// FNV-1a, inlined to avoid allocating a hash.Hash per lookup.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % uint64(r.N()))
}
