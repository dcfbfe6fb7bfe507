// Package shard provides the machinery of the keyed multi-register Store
// layer: hash-based routing of keys onto N independent atomic registers, a
// lazily-instantiated per-shard table, the leader-handoff group commit
// (Group — also what batches cross-shard rounds and WAL fsyncs), and the
// codec that packs one shard's key→value table into a single register value.
//
// The layering mirrors the paper's cloud key-value scenario (Section 1.1):
// each shard is one robust atomic SWMR register hosted on the same S = 3t+1
// Byzantine-prone objects; a key's reads and writes are the projection of
// that register's atomic operations, so per-key atomicity follows directly
// from per-register atomicity.
package shard

import (
	"fmt"
	"sync/atomic"
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

// Lazy is a fixed-size table of per-shard values built on first use. Each
// slot builds independently, so building one shard (which may involve a slow
// network recovery read) never stalls operations on other shards; concurrent
// first Gets of one slot wait for a single build the way any batch waits for
// its leader (Group). A slot whose build fails stays empty and is retried on
// the next Get, so a transient failure (e.g. an unreachable cluster during
// shard recovery) does not poison the shard forever.
type Lazy[T any] struct {
	build func(int) (T, error)
	slots []lazySlot[T]
}

type lazySlot[T any] struct {
	building Group[struct{}, struct{}] // one build at a time
	built    atomic.Bool
	val      T // written before built is set
}

// NewLazy returns a table of n slots built by build (called at most once per
// slot per success). wait is the slots' Group.Wait (nil in production).
func NewLazy[T any](n int, build func(int) (T, error), wait func(done, lead <-chan struct{})) *Lazy[T] {
	l := &Lazy[T]{build: build, slots: make([]lazySlot[T], n)}
	for i := range l.slots {
		l.slots[i].building.Wait = wait
	}
	return l
}

// Get returns slot i, building it on first touch. Concurrent Gets of the
// same slot observe a single build; Gets of different slots never contend.
func (l *Lazy[T]) Get(i int) (T, error) {
	var zero T
	if i < 0 || i >= len(l.slots) {
		return zero, fmt.Errorf("shard: slot %d out of 0..%d", i, len(l.slots)-1)
	}
	s := &l.slots[i]
	if !s.built.Load() {
		_, _, err := s.building.Do(struct{}{}, func([]struct{}) (struct{}, error) {
			if s.built.Load() {
				return struct{}{}, nil
			}
			v, err := l.build(i)
			if err == nil {
				s.val = v
				s.built.Store(true)
			}
			return struct{}{}, err
		})
		if err != nil {
			return zero, err
		}
	}
	return s.val, nil
}

// Built returns the values instantiated so far, in slot order.
func (l *Lazy[T]) Built() []T {
	var out []T
	for i := range l.slots {
		if s := &l.slots[i]; s.built.Load() {
			out = append(out, s.val)
		}
	}
	return out
}
