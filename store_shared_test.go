package robustatomic

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"robustatomic/internal/sim"
)

// TestStoresOfOneProcessShareShards: two Stores of one process Put a key each
// of their one shard, ten times, from two clients at once. The shard's
// register has one writer per process, which both Stores commit through: if
// each Store had a committer of its own, the two would write the shard at one
// writer identity's timestamps without reading each other's tables, and one
// key's Puts would be lost though none failed. Both keys must read their last
// value, and no object may hold two values at one timestamp.
func TestStoresOfOneProcessShareShards(t *testing.T) {
	t.Run("scheduled", func(t *testing.T) {
		for seed := int64(1); seed <= 100; seed++ {
			s := sim.New(sim.Config{Servers: 4})
			s.Seed(seed)
			s.SetLatency(0, 200*time.Microsecond)
			c, err := NewSimCluster(s, Options{Faults: 1, Readers: 2})
			if err != nil {
				t.Fatal(err)
			}
			twoStorePuts(t, fmt.Sprintf("seed %d", seed), c, func(clients ...func()) {
				for _, f := range clients {
					s.Go(f)
				}
				if err := s.Run(nil); err != nil {
					t.Fatal(err)
				}
			})
			c.Close()
			s.Close()
		}
	})
	t.Run("inline", func(t *testing.T) {
		c, err := NewCluster(Options{Faults: 1, Readers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		twoStorePuts(t, "inline", c, func(clients ...func()) {
			var wg sync.WaitGroup
			for _, f := range clients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					f()
				}()
			}
			wg.Wait()
		})
	})
}

// twoStorePuts puts k0 = v0…v9 through one Store of c and k1 = v0…v9 through
// another, one client each, then reads each key back through its Store and
// sweeps the objects with Doctor.
func twoStorePuts(t *testing.T, run string, c *Cluster, clients func(...func())) {
	t.Helper()
	var stores [2]*Store
	var puts []func()
	for i := range stores {
		st, err := c.NewStore(StoreOptions{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
		puts = append(puts, func() {
			for v := 0; v < 10; v++ {
				if err := st.Put(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", v)); err != nil {
					t.Errorf("%s: Put k%d: %v", run, i, err)
				}
			}
		})
	}
	clients(puts...)
	var rep DoctorReport
	clients(func() {
		for i, st := range stores {
			if v, err := st.Get(fmt.Sprintf("k%d", i)); err != nil || v != "v9" {
				t.Errorf("%s: k%d = %q, %v through the Store that put it; want v9", run, i, v, err)
			}
		}
		rep = c.Doctor(1)
	})
	if len(rep.Diverged)+len(rep.Skipped) != 0 {
		t.Errorf("%s: doctor: %+v", run, rep)
	}
}

// TestShardStateBuiltOncePerProcess: concurrent first uses of one shard, from
// several Stores and goroutines, find one state, and Writer is one handle.
func TestShardStateBuiltOncePerProcess(t *testing.T) {
	c, err := NewCluster(Options{Faults: 1, Readers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const stores, goroutines = 4, 8
	got := make([][]*storeShard, stores*goroutines)
	writers := make([]*Writer, stores*goroutines)
	var wg sync.WaitGroup
	for i := 0; i < stores; i++ {
		st, err := c.NewStore(StoreOptions{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < goroutines; g++ {
			n := i*goroutines + g
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 16; k++ {
					got[n] = append(got[n], st.shard(fmt.Sprintf("key%d", k)))
				}
				writers[n] = c.Writer()
			}()
		}
	}
	wg.Wait()
	for n := range got {
		for k, sh := range got[n] {
			if sh != got[0][k] || sh != c.shard(sh.idx+1) {
				t.Fatalf("caller %d found shard %d's state at %p, caller 0 at %p; want one state", n, sh.idx, sh, got[0][k])
			}
		}
		if writers[n] != c.Writer() {
			t.Fatalf("caller %d got a writer of its own", n)
		}
	}
}
