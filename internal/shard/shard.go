// Package shard provides the machinery of the keyed multi-register Store
// layer: hash-based routing of keys onto N independent atomic registers, a
// lazily-instantiated per-shard table, the leader-handoff group commit
// (Group — also what batches cross-shard rounds and WAL fsyncs), and the
// codec that packs one shard's key→value table into a single register value.
//
// The layering mirrors the paper's cloud key-value scenario (Section 1.1):
// each shard is one robust atomic MWMR register hosted on the same S = 3t+1
// Byzantine-prone objects; a key's reads and writes are the projection of
// that register's atomic operations, so per-key atomicity follows directly
// from per-register atomicity.
package shard

import (
	"fmt"
	"sync"
)

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

// Lazy is a fixed-size table of per-shard values built on first use, once
// per slot: concurrent first Gets of one slot observe a single build, and Gets
// of different slots never contend. A build only allocates — it talks to no
// object — so it cannot fail.
type Lazy[T any] struct {
	build func(int) T
	slots []lazySlot[T]
}

type lazySlot[T any] struct {
	once sync.Once
	val  T
}

// NewLazy returns a table of n slots built by build.
func NewLazy[T any](n int, build func(int) T) *Lazy[T] {
	return &Lazy[T]{build: build, slots: make([]lazySlot[T], n)}
}

// Get returns slot i (0 ≤ i < n), building it on first touch.
func (l *Lazy[T]) Get(i int) T {
	s := &l.slots[i]
	s.once.Do(func() { s.val = l.build(i) })
	return s.val
}
