package robustatomic

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStoreGetElidedRounds pins the adaptive read's fast case: on a stable
// shard (last write complete on a full quorum) a Get is exactly ONE query
// round — its replies agree on every register, so no decision round runs,
// and the write-back the paper's worst-case read needs is certified
// redundant by the same replies and elided.
func TestStoreGetElidedRounds(t *testing.T) {
	st, rounds, _ := countingStore(t, 41)
	if err := st.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		atomic.StoreInt64(rounds, 0)
		v, err := st.Get("k")
		if err != nil || v != "v" {
			t.Fatalf("Get %d = %q, %v; want v", i, v, err)
		}
		if got := atomic.LoadInt64(rounds); got != 1 {
			t.Fatalf("stable Get %d took %d rounds, want 1 (fast hit, write-back elided)", i, got)
		}
	}
}

// TestStoreGetFallbackOnIncompleteWrite pins the worst case Proposition 1
// proves necessary: when the queried quorum cannot certify the decided
// write as complete, the Get pays the full 4 rounds (2 queries + the
// 2-round write-back) — and, the write-back having completed the pair in
// the shard's register, a later Get hits.
func TestStoreGetFallbackOnIncompleteWrite(t *testing.T) {
	st, rounds, _ := countingStore(t, 42)
	c := st.c
	if err := st.Put("k", "v1"); err != nil {
		t.Fatal(err)
	}
	// v2 lands on {1,2,3} only; the read then quorum-switches to {1,2,4},
	// where only two objects have seen v2 — completeness stays in doubt.
	if err := c.Partition(4); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("k", "v2"); err != nil {
		t.Fatal(err)
	}
	if err := c.Heal(4); err != nil {
		t.Fatal(err)
	}
	if err := c.Partition(3); err != nil {
		t.Fatal(err)
	}
	atomic.StoreInt64(rounds, 0)
	v, err := st.Get("k")
	if err != nil || v != "v2" {
		t.Fatalf("Get = %q, %v; want v2", v, err)
	}
	if got := atomic.LoadInt64(rounds); got != 4 {
		t.Fatalf("incomplete-write Get took %d rounds, want 4 (full write-back)", got)
	}
	// The write-back completed v2 in the shard's register, on s4 too: every
	// object holds it, so whichever S−t answer first, the next Get hits — one
	// round.
	if err := c.Heal(3); err != nil {
		t.Fatal(err)
	}
	atomic.StoreInt64(rounds, 0)
	if v, err := st.Get("k"); err != nil || v != "v2" {
		t.Fatalf("recovered Get = %q, %v; want v2", v, err)
	}
	if got := atomic.LoadInt64(rounds); got != 1 {
		t.Fatalf("recovered Get took %d rounds, want 1 (the write-back settled the register)", got)
	}
}

// TestStoreGetNoElisionUnderByzantine pins the elision condition's
// soundness against active adversaries: a stale or equivocating object can
// WITHHOLD completeness evidence (costing the read its write-back rounds)
// but can never forge the S−t w-reports that would let a read elide the
// write-back of a genuinely incomplete decision — and the read still
// returns the freshest certified value.
func TestStoreGetNoElisionUnderByzantine(t *testing.T) {
	for _, mode := range []string{"stale", "equivocate"} {
		t.Run(mode, func(t *testing.T) {
			st, rounds, _ := countingStore(t, 43)
			c := st.c
			if err := st.Put("k", "v1"); err != nil {
				t.Fatal(err)
			}
			if err := c.InjectFault(1, mode); err != nil {
				t.Fatal(err)
			}
			if mode == "equivocate" {
				// The equivocator answers readers from a state frozen at the
				// first read it serves: freeze it at v1, before v2 lands.
				if v, err := st.Get("k"); err != nil || v != "v1" {
					t.Fatalf("freeze Get = %q, %v; want v1", v, err)
				}
			}
			if err := st.Put("k", "v2"); err != nil {
				t.Fatal(err)
			}
			// Cut one CORRECT holder of v2 off: the queried quorum is now
			// {byzantine 1, correct 2, correct 3} — two genuine w-reports of
			// v2, one forged-or-frozen view. Elision must not fire.
			if err := c.Partition(4); err != nil {
				t.Fatal(err)
			}
			atomic.StoreInt64(rounds, 0)
			v, err := st.Get("k")
			if err != nil || v != "v2" {
				t.Fatalf("Get = %q, %v; want v2", v, err)
			}
			if got := atomic.LoadInt64(rounds); got != 4 {
				t.Fatalf("Byzantine-disturbed Get took %d rounds, want 4 (elision withheld, never forged)", got)
			}
		})
	}
}

// TestStoreGetCoalescing pins the read-side group commit: Gets that arrive
// while a shard read is in flight coalesce into one pending batch served by
// a SINGLE protocol read once the in-flight read completes — K concurrent
// Gets cost 1 round, not K. The test plays the in-flight leader itself (a
// gated run on the shard's read group), which makes the coalescing window
// deterministic.
func TestStoreGetCoalescing(t *testing.T) {
	st, rounds, _ := countingStore(t, 44)
	if err := st.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	sh := st.c.shard(1)
	// Pose as a running read leader: arriving Gets must now coalesce.
	release := make(chan struct{})
	leading := make(chan struct{})
	go sh.gets.Do(struct{}{}, func([]struct{}) (map[string]string, error) {
		close(leading)
		<-release
		return nil, nil
	})
	<-leading

	const K = 6
	var wg sync.WaitGroup
	errs := make([]error, K)
	vals := make([]string, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = st.Get("k")
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		joined := len(sh.gets.Pending())
		if joined == K {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d Gets coalesced into the pending batch", joined, K)
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Finish the leader's run: it hands the pending batch its leadership
	// token. One waiter runs the shared read; the rest ride it.
	atomic.StoreInt64(rounds, 0)
	close(release)
	wg.Wait()
	for i := 0; i < K; i++ {
		if errs[i] != nil || vals[i] != "v" {
			t.Fatalf("coalesced Get %d = %q, %v; want v", i, vals[i], errs[i])
		}
	}
	if got := atomic.LoadInt64(rounds); got != 1 {
		t.Fatalf("%d coalesced Gets took %d rounds, want 1 (one shared one-round read)", K, got)
	}
	// The shard must be back in its idle state.
	if p := sh.gets.Pending(); len(p) != 0 {
		t.Fatalf("shard read state not idle after the batch drained: %d pending", len(p))
	}
}

// TestStoreGetCertifiedTableCache pins the decode cache: consecutive Gets
// deciding on the same certified timestamp share ONE decoded table (the
// second read skips the decode entirely), and any flush that moves the
// register head drops the entry.
func TestStoreGetCertifiedTableCache(t *testing.T) {
	st, _, _ := countingStore(t, 45)
	for i := 0; i < 4; i++ {
		if err := st.Put(fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	sh := st.c.shard(1)
	t1, err := sh.sharedRead()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := sh.sharedRead()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.ValueOf(t1).Pointer() != reflect.ValueOf(t2).Pointer() {
		t.Fatal("second read at the same certified timestamp decoded a fresh table (cache miss)")
	}
	// A flush moves the head and must invalidate; the next read decides the
	// new timestamp and decodes anew.
	if err := st.Put("k0", "v2"); err != nil {
		t.Fatal(err)
	}
	sh.cacheMu.Lock()
	invalidated := sh.cacheTab == nil
	sh.cacheMu.Unlock()
	if !invalidated {
		t.Fatal("flush did not invalidate the certified-table cache")
	}
	t3, err := sh.sharedRead()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.ValueOf(t3).Pointer() == reflect.ValueOf(t1).Pointer() {
		t.Fatal("read after flush returned the stale cached table")
	}
	if t3["k0"] != "v2" || t3["k1"] != "v" {
		t.Fatalf("post-flush table = %v", t3)
	}
	// The cache must never alias the committer-private table (the committer
	// mutates its copy in place between flushes).
	sh.cacheMu.Lock()
	aliased := sh.cacheTab != nil &&
		reflect.ValueOf(sh.cacheTab).Pointer() == reflect.ValueOf(sh.table).Pointer()
	sh.cacheMu.Unlock()
	if aliased {
		t.Fatal("certified-table cache aliases the committer's table")
	}
}
