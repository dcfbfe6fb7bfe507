package robustatomic

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"robustatomic/internal/checker"
	"robustatomic/internal/shard"
	"robustatomic/internal/tcpnet"
	"robustatomic/internal/types"
)

func storeKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
	}
	return keys
}

func TestStoreBasic(t *testing.T) {
	c, err := NewCluster(Options{Faults: 1, Readers: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.NewStore(StoreOptions{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards() != 8 {
		t.Fatalf("Shards() = %d", st.Shards())
	}
	keys := storeKeys(64)
	hit := make(map[int]bool)
	for i, k := range keys {
		hit[st.ShardOf(k)] = true
		if err := st.Put(k, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}
	if len(hit) != 8 {
		t.Errorf("64 keys hit only %d of 8 shards", len(hit))
	}
	for i, k := range keys {
		v, err := st.Get(k)
		if err != nil {
			t.Fatalf("get %s: %v", k, err)
		}
		if want := fmt.Sprintf("v%d", i); v != want {
			t.Errorf("get %s = %q, want %q", k, v, want)
		}
	}
	if v, err := st.Get("never-written"); err != nil || v != "" {
		t.Errorf("absent key = %q, %v", v, err)
	}
}

func TestStoreDefaultsAndDelete(t *testing.T) {
	c, err := NewCluster(Options{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.NewStore(StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards() != 8 {
		t.Fatalf("default shards = %d", st.Shards())
	}
	if err := st.Put("a", "1"); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if v, _ := st.Get("a"); v != "" {
		t.Errorf("deleted key reads %q", v)
	}
	// Deleting an absent key is a no-op write, not an error.
	if err := st.Delete("ghost"); err != nil {
		t.Fatal(err)
	}
}

func TestStoreKeysShareShardIndependently(t *testing.T) {
	c, err := NewCluster(Options{Faults: 1, Readers: 1, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// One shard forces every key onto the same register: per-key values must
	// still be independent.
	st, err := c.NewStore(StoreOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("x", "1"); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("y", "2"); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("x", "3"); err != nil {
		t.Fatal(err)
	}
	if v, _ := st.Get("y"); v != "2" {
		t.Errorf("y = %q after writes to x", v)
	}
	if v, _ := st.Get("x"); v != "3" {
		t.Errorf("x = %q", v)
	}
}

// TestStorePerKeyAtomicity drives the acceptance scenario: 64 keys over 8
// shards under concurrent putters and getters, with a Byzantine (flaky)
// object injected on one shard's objects mid-workload, and verifies per-key
// atomicity with the checker.
func TestStorePerKeyAtomicity(t *testing.T) {
	const (
		shards  = 8
		keys    = 64
		writes  = 4
		reads   = 3
		readers = 2
	)
	seed := chaosSeedFor(t, 15, 2)
	opts := Options{Faults: 1, Readers: readers, Seed: seed, Tracer: chaosTracer(t)}
	eachChaosCluster(t, opts, func(t *testing.T, c *Cluster, run func(...func())) {
		st, err := c.NewStore(StoreOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		// Object s2 turns Byzantine for the whole run: it drops about half its
		// replies across every shard it hosts (the injected behavior applies to
		// the physical object, hence to all register instances on it).
		if err := c.InjectFault(2, "flaky"); err != nil {
			t.Fatal(err)
		}

		hists := make([]*checker.History, keys)
		for i := range hists {
			hists[i] = &checker.History{}
		}
		var clients []func()
		for k := 0; k < keys; k++ {
			key := fmt.Sprintf("key-%03d", k)
			clients = append(clients, func() { // one putter per key: per-key writes stay sequential
				for i := 1; i <= writes; i++ {
					val := fmt.Sprintf("k%d-v%d", k, i)
					id := hists[k].Invoke(types.Writer, checker.OpWrite, types.Value(val))
					if err := st.Put(key, val); err != nil {
						t.Errorf("put %s: %v", key, err)
						return
					}
					hists[k].Respond(id, types.Value(val))
				}
			}, func() {
				for i := 0; i < reads; i++ {
					id := hists[k].Invoke(types.Reader(k+1), checker.OpRead, "")
					v, err := st.Get(key)
					if err != nil {
						t.Errorf("get %s: %v", key, err)
						return
					}
					hists[k].Respond(id, types.Value(v))
				}
			})
		}
		run(clients...)
		for k, h := range hists {
			if err := checker.CheckAtomic(h); err != nil {
				t.Errorf("key %d: %v", k, err)
			}
		}
	})
}

// TestStoreReadHeavyChaos is the root-package twin of the torture suite's
// read-heavy mode: a Get-dominated workload on FEW shards (so concurrent
// Gets coalesce into shared reads and re-decide cached tables) under a
// flaky Byzantine object, in parallel and under seeded asynchrony, with two concurrent
// putter streams per key so the multi-writer checker decides every
// history. This is the chaos coverage for the adaptive read path: elision
// firing and being refused mid-fault, leader handoff racing the committer,
// and cache invalidation racing flushes — all -race-visible on the inline
// cluster, and replayable from the seed on the scheduled one.
func TestStoreReadHeavyChaos(t *testing.T) {
	const (
		shards  = 4 // deliberately fewer shards than keys: Gets contend and coalesce
		keys    = 8
		writes  = 3 // per putter stream
		getters = 3
		reads   = 6 // per getter
	)
	seed := chaosSeedFor(t, 27, 2)
	opts := Options{Faults: 1, Readers: 2, Seed: seed, Tracer: chaosTracer(t)}
	eachChaosCluster(t, opts, func(t *testing.T, c *Cluster, run func(...func())) {
		st, err := c.NewStore(StoreOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.InjectFault(2, "flaky"); err != nil {
			t.Fatal(err)
		}

		hists := make([]*checker.History, keys)
		for i := range hists {
			hists[i] = &checker.History{}
		}
		var clients []func()
		for k := 0; k < keys; k++ {
			key := fmt.Sprintf("key-%03d", k)
			for w := 0; w < 2; w++ { // two concurrent putter streams per key
				clients = append(clients, func() {
					for i := 1; i <= writes; i++ {
						val := fmt.Sprintf("k%d-w%d-v%d", k, w, i)
						id := hists[k].Invoke(types.WriterID(10+w), checker.OpWrite, types.Value(val))
						if err := st.Put(key, val); err != nil {
							t.Errorf("put %s: %v", key, err)
							return
						}
						hists[k].Respond(id, types.Value(val))
					}
				})
			}
			for g := 0; g < getters; g++ {
				clients = append(clients, func() {
					for i := 0; i < reads; i++ {
						id := hists[k].Invoke(types.Reader(100+k*getters+g), checker.OpRead, "")
						v, err := st.Get(key)
						if err != nil {
							t.Errorf("get %s: %v", key, err)
							return
						}
						hists[k].Respond(id, types.Value(v))
					}
				})
			}
		}
		run(clients...)
		for k, h := range hists {
			if err := checker.CheckAtomicMW(h); err != nil {
				t.Errorf("key %d: %v", k, err)
			}
		}
	})
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestStoreBatchAppliesPutDeleteInCallOrder pins the group-commit merge
// semantics: a batch holding both a Put and a Delete of the same key applies
// them in call order, and the whole batch commits as one register write.
func TestStoreBatchAppliesPutDeleteInCallOrder(t *testing.T) {
	for _, tc := range []struct {
		name    string
		first   func(st *Store) error
		second  func(st *Store) error
		want    string
		present bool
	}{
		{
			name:   "put-then-delete",
			first:  func(st *Store) error { return st.Put("k", "v1") },
			second: func(st *Store) error { return st.Delete("k") },
			want:   "", present: false,
		},
		{
			name:   "delete-then-put",
			first:  func(st *Store) error { return st.Delete("k") },
			second: func(st *Store) error { return st.Put("k", "v2") },
			want:   "v2", present: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCluster(Options{Faults: 1, Readers: 1, Seed: 21})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			st, err := c.NewStore(StoreOptions{Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Put("k", "v0"); err != nil { // both cases start with k present
				t.Fatal(err)
			}
			sh, err := st.shards.Get(0)
			if err != nil {
				t.Fatal(err)
			}
			// Instrument the shard's flush: record every committed table and
			// hold the next register write in flight (between the flush's
			// certified read and its write) while the test batch forms.
			gate := make(chan struct{})
			entered := make(chan struct{}, 1)
			var mu sync.Mutex
			var committed []map[string]string
			hold := true
			orig := sh.modify
			sh.modify = func(fn func(types.Pair) (types.Value, types.Delta, error)) (types.Pair, error) {
				return orig(func(cur types.Pair) (types.Value, types.Delta, error) {
					v, from, err := fn(cur)
					if err != nil {
						return v, from, err
					}
					dec, derr := shard.DecodeTable(string(v))
					if derr != nil {
						t.Errorf("committed table does not decode: %v", derr)
					}
					mu.Lock()
					committed = append(committed, dec)
					block := hold
					hold = false
					mu.Unlock()
					if block {
						entered <- struct{}{}
						<-gate
					}
					return v, from, nil
				})
			}

			var wg sync.WaitGroup
			run := func(f func(st *Store) error) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := f(st); err != nil {
						t.Error(err)
					}
				}()
			}
			run(func(st *Store) error { return st.Put("blocker", "x") })
			<-entered // the blocker's write is now in flight
			run(tc.first)
			waitUntil(t, "first mutation queued", func() bool {
				p := sh.puts.Pending()
				return len(p) == 1 && len(p[0]) == 1
			})
			run(tc.second)
			waitUntil(t, "second mutation queued", func() bool {
				p := sh.puts.Pending()
				return len(p) == 1 && len(p[0]) == 2
			})
			close(gate)
			wg.Wait()

			mu.Lock()
			defer mu.Unlock()
			if len(committed) != 2 {
				t.Fatalf("batched mutations took %d register writes, want 2 (blocker + one batch)", len(committed))
			}
			v, ok := committed[1]["k"]
			if ok != tc.present || v != tc.want {
				t.Errorf("batch committed k = %q (present %v), want %q (present %v)", v, ok, tc.want, tc.present)
			}
			if v, err := st.Get("k"); err != nil || v != tc.want {
				t.Errorf("Get(k) after batch = %q, %v", v, err)
			}
		})
	}
}

// TestStoreCoalescedAtomicityUnderFault drives concurrent batched Puts
// through the coalescing write path (few shards, many keys, zero delay — the
// live fast path) with a flaky Byzantine object, and verifies per-key
// atomicity with the checker.
func TestStoreCoalescedAtomicityUnderFault(t *testing.T) {
	const (
		shards  = 2
		keys    = 16
		writes  = 5
		reads   = 4
		readers = 2
	)
	seed := chaosSeedFor(t, 22, 3)
	c, err := NewCluster(Options{Faults: 1, Readers: readers, Seed: seed, Tracer: chaosTracer(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.NewStore(StoreOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InjectFault(3, "flaky"); err != nil {
		t.Fatal(err)
	}
	hists := make([]*checker.History, keys)
	for i := range hists {
		hists[i] = &checker.History{}
	}
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		k := k
		key := fmt.Sprintf("key-%03d", k)
		wg.Add(1)
		go func() { // one putter per key: per-key writes stay sequential
			defer wg.Done()
			for i := 1; i <= writes; i++ {
				val := fmt.Sprintf("k%d-v%d", k, i)
				id := hists[k].Invoke(types.Writer, checker.OpWrite, types.Value(val))
				if err := st.Put(key, val); err != nil {
					t.Errorf("put %s: %v", key, err)
					return
				}
				hists[k].Respond(id, types.Value(val))
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				id := hists[k].Invoke(types.Reader(k+1), checker.OpRead, "")
				v, err := st.Get(key)
				if err != nil {
					t.Errorf("get %s: %v", key, err)
					return
				}
				hists[k].Respond(id, types.Value(v))
			}
		}()
	}
	wg.Wait()
	for k, h := range hists {
		if err := checker.CheckAtomic(h); err != nil {
			t.Errorf("key %d: %v", k, err)
		}
	}
}

// TestStoreTCPRecovery runs the Store against real TCP daemons and verifies
// that a second client recovers each shard's contents and resumes its write
// timestamps, and that the daemons host many register instances.
func TestStoreTCPRecovery(t *testing.T) {
	var addrs []string
	var servers []*tcpnet.Server
	for i := 1; i <= 4; i++ {
		s, err := tcpnet.NewServer(i, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		servers = append(servers, s)
		addrs = append(addrs, s.Addr())
	}
	keys := storeKeys(16)

	c1, err := Connect(addrs, Options{Faults: 1, Readers: 2, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	st1, err := c1.NewStore(StoreOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if err := st1.Put(k, fmt.Sprintf("gen1-%d", i)); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}
	c1.Close()

	if got := servers[0].Registers(); got < 4 {
		t.Errorf("s1 hosts %d register instances, want ≥ 4", got)
	}

	// A fresh client must see generation 1 and be able to overwrite it:
	// shard recovery reads back each shard's table and last timestamp.
	c2, err := Connect(addrs, Options{Faults: 1, Readers: 2, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st2, err := c2.NewStore(StoreOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		v, err := st2.Get(k)
		if err != nil {
			t.Fatalf("get %s: %v", k, err)
		}
		if want := fmt.Sprintf("gen1-%d", i); v != want {
			t.Errorf("recovered %s = %q, want %q", k, v, want)
		}
	}
	if err := st2.Put(keys[0], "gen2-0"); err != nil {
		t.Fatal(err)
	}
	if v, _ := st2.Get(keys[0]); v != "gen2-0" {
		t.Errorf("post-recovery put not visible: %q", v)
	}
	if v, _ := st2.Get(keys[1]); v != "gen1-1" {
		t.Errorf("sibling key clobbered by recovery: %q", v)
	}
}

// TestConcurrentHandleCreation creates handles from many goroutines at once,
// in-process and over TCP (first-dial hazard); run with -race.
func TestConcurrentHandleCreation(t *testing.T) {
	t.Run("inproc", func(t *testing.T) {
		c, err := NewCluster(Options{Faults: 1, Readers: 8, Seed: 18})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var wg sync.WaitGroup
		for g := 1; g <= 8; g++ {
			g := g
			wg.Add(1)
			go func() { // concurrent creation AND use
				defer wg.Done()
				r, err := c.Reader(g)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := r.Read(); err != nil {
					t.Errorf("reader %d: %v", g, err)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := c.Writer()
			for i := 0; i < 4; i++ {
				if err := w.Write(fmt.Sprintf("v%d", i)); err != nil {
					t.Errorf("write: %v", err)
				}
			}
		}()
		wg.Wait()
	})
	t.Run("tcp", func(t *testing.T) {
		var addrs []string
		for i := 1; i <= 4; i++ {
			s, err := tcpnet.NewServer(i, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			addrs = append(addrs, s.Addr())
		}
		c, err := Connect(addrs, Options{Faults: 1, Readers: 8, Seed: 19})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var wg sync.WaitGroup
		for g := 1; g <= 8; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := c.Reader(g); err != nil {
					t.Error(err)
				}
				c.Writer()
			}()
		}
		wg.Wait()
	})
}

// TestFlakySeedDerivation pins the InjectFault("flaky") fix: distinct
// objects must get distinct drop patterns from the same cluster seed.
func TestFlakySeedDerivation(t *testing.T) {
	seen := make(map[int64]int)
	for sid := 1; sid <= 4; sid++ {
		s := mixSeed(7, int64(sid))
		if prev, dup := seen[s]; dup {
			t.Fatalf("objects %d and %d derive the same seed", prev, sid)
		}
		seen[s] = sid
	}
	a := rand.New(rand.NewSource(mixSeed(7, 1)))
	b := rand.New(rand.NewSource(mixSeed(7, 2)))
	same := true
	for i := 0; i < 16; i++ {
		if a.Float64() != b.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Error("flaky objects 1 and 2 would drop identical message patterns")
	}
}
