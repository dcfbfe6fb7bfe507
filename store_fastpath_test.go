package robustatomic

import (
	"fmt"
	"sync/atomic"
	"testing"

	"robustatomic/internal/types"
)

// countingStore builds a 1-shard store over an in-process cluster with a
// round counter on every handle and a register-write counter on the shard.
func countingStore(t *testing.T, seed int64) (*Store, *int64, *int64) {
	t.Helper()
	var rounds int64
	c, err := NewCluster(Options{
		Faults:    1,
		Readers:   1,
		Seed:      seed,
		RoundHook: func(string) { atomic.AddInt64(&rounds, 1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	st, err := c.NewStore(StoreOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	sh := st.c.shard(1)
	var writes int64
	origModify := sh.modify
	sh.modify = func(fn func(types.Pair) (types.Value, types.Delta, error)) (types.Pair, error) {
		wrote := false
		p, err := origModify(func(cur types.Pair) (types.Value, types.Delta, error) {
			v, from, ferr := fn(cur)
			wrote = ferr == nil
			return v, from, ferr
		})
		if err == nil && wrote {
			atomic.AddInt64(&writes, 1)
		}
		return p, err
	}
	return st, &rounds, &writes
}

// TestStoreFlushFastPathRounds pins the flush's round complexity: an
// uncontended dirty flush is the certified read-modify-write with its read on
// the fast path (a hit) — READ1, PREWRITE, WRITE: 3 rounds, no decision
// round — and exactly one register write.
func TestStoreFlushFastPathRounds(t *testing.T) {
	st, rounds, writes := countingStore(t, 31)
	if err := st.Put("k", "v0"); err != nil { // first Put instantiates the shard
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		atomic.StoreInt64(rounds, 0)
		atomic.StoreInt64(writes, 0)
		if err := st.Put("k", fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
		if got := atomic.LoadInt64(rounds); got != 3 {
			t.Fatalf("uncontended flush %d took %d rounds, want 3 (READ1 + PREWRITE + WRITE)", i, got)
		}
		if got := atomic.LoadInt64(writes); got != 1 {
			t.Fatalf("uncontended flush %d took %d register writes, want 1", i, got)
		}
	}
}

// TestStoreNoOpMutationsElided pins satellite behavior: a Put of the
// already-current value or a Delete of an absent key, alone in a batch,
// commits with ONE round — the certified read, which finds the cached table
// current — and NO register write; mixed with a real mutation the batch pays
// the normal single write.
func TestStoreNoOpMutationsElided(t *testing.T) {
	st, rounds, writes := countingStore(t, 32)
	if err := st.Put("k", "v"); err != nil {
		t.Fatal(err)
	}

	atomic.StoreInt64(rounds, 0)
	atomic.StoreInt64(writes, 0)
	if err := st.Put("k", "v"); err != nil { // Put of the current value
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(rounds); got != 1 {
		t.Fatalf("no-op Put took %d rounds, want 1 (the certified read)", got)
	}
	if got := atomic.LoadInt64(writes); got != 0 {
		t.Fatalf("no-op Put took %d register writes, want 0", got)
	}

	atomic.StoreInt64(rounds, 0)
	if err := st.Delete("absent-key"); err != nil { // Delete of an absent key
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(rounds); got != 1 {
		t.Fatalf("no-op Delete took %d rounds, want 1 (the certified read)", got)
	}
	if got := atomic.LoadInt64(writes); got != 0 {
		t.Fatalf("no-op Delete took %d register writes, want 0", got)
	}

	// The elision must not have lost anything.
	if v, err := st.Get("k"); err != nil || v != "v" {
		t.Fatalf("Get(k) after elided flushes = %q, %v; want v", v, err)
	}

	// A real mutation still writes (and the dirty bit, not the batch size,
	// decides: the no-op rides along for free).
	atomic.StoreInt64(writes, 0)
	if err := st.Put("k", "v2"); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(writes); got != 1 {
		t.Fatalf("dirty flush took %d register writes, want 1", got)
	}
	if v, err := st.Get("k"); err != nil || v != "v2" {
		t.Fatalf("Get(k) = %q, %v; want v2", v, err)
	}
}

// TestStoreFlushRebasesAfterForeignWrite drives a rebase over TCP: process B
// lands a foreign write on A's shard, so A's next flush reads a pair other
// than its cached one and must rebase onto it WITHOUT dropping B's key.
func TestStoreFlushRebasesAfterForeignWrite(t *testing.T) {
	addrs, _ := startServers(t, 4)
	connect := func(wid int) *Store {
		c, err := Connect(addrs, Options{Faults: 1, Readers: 2, WriterID: wid, Seed: int64(40 + wid)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		st, err := c.NewStore(StoreOptions{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a := connect(0)
	b := connect(1)
	if err := a.Put("a-key", "a1"); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("b-key", "b1"); err != nil { // B rebases onto A's table, then writes
		t.Fatal(err)
	}
	if err := a.Put("a-key", "a2"); err != nil { // A's cache is stale → rebase
		t.Fatal(err)
	}
	// A's rebase must have preserved B's foreign key, and vice versa.
	for _, tc := range []struct{ key, want string }{{"a-key", "a2"}, {"b-key", "b1"}} {
		if v, err := a.Get(tc.key); err != nil || v != tc.want {
			t.Errorf("A.Get(%s) = %q, %v; want %q", tc.key, v, err, tc.want)
		}
		if v, err := b.Get(tc.key); err != nil || v != tc.want {
			t.Errorf("B.Get(%s) = %q, %v; want %q", tc.key, v, err, tc.want)
		}
	}
}

// TestStoreNoOpAfterRebaseStillWrites pins the elision's soundness
// boundary: when the flush REBASED onto a pair it did not commit itself, an
// all-no-op batch must still write the rebased table at a fresh successor
// rather than elide — the certified read is a regular read with no
// write-back, so the observed pair could be an incomplete foreign write that
// later atomic reads are allowed never to return; re-asserting it at our own
// timestamp completes it.
func TestStoreNoOpAfterRebaseStillWrites(t *testing.T) {
	st, _, writes := countingStore(t, 34)
	if err := st.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	sh := st.c.shard(1)
	// Rewind the committer's cache, as if this process had never seen the
	// current head: the flush must detect the "foreign" pair, rebase, and
	// refuse to elide.
	sh.base = types.Pair{}
	sh.table = map[string]string{}
	sh.touched = nil
	atomic.StoreInt64(writes, 0)
	if err := st.Put("k", "v"); err != nil { // no-op against the REBASED table
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(writes); got != 1 {
		t.Fatalf("no-op batch after rebase took %d register writes, want 1 (must re-assert the rebased pair)", got)
	}
	if v, err := st.Get("k"); err != nil || v != "v" {
		t.Fatalf("Get(k) = %q, %v; want v", v, err)
	}
}
