package robustatomic

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"robustatomic/internal/checker"
	"robustatomic/internal/server"
	"robustatomic/internal/types"
)

// TestPipelinedBatchedRoundsAtomicUnderChaos is the wire-generation-3
// acceptance test: two separately Connected processes hammer a sharded
// Store over real TCP daemons with pipelining and cross-shard coalescing
// (what a remote cluster always does), while object 1 is flaky: it drops
// whole replies and — the behavior is asked once per sub-request — individual
// sub-replies out of batched ones. Every per-key history must still pass the
// multi-writer atomicity checker. Run with -race.
func TestPipelinedBatchedRoundsAtomicUnderChaos(t *testing.T) {
	const (
		shards        = 8
		keys          = 4
		writesPerProc = 4
		reads         = 4
	)
	addrs, servers := startServers(t, 4)
	// A batched round may get a partial bundle from object 1. Every chaos
	// stream derives from one base seed so a failure replays with -chaos.seed.
	base := chaosSeedFor(t, 41, 1)
	servers[0].SetBehavior(server.Flaky{Rand: rand.New(rand.NewSource(mixSeed(base, 1))), DropProb: 0.4})

	tracer := chaosTracer(t)
	c1, err := Connect(addrs, Options{Faults: 1, Readers: 3, WriterID: 1, Seed: mixSeed(base, 401), Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Connect(addrs, Options{Faults: 1, Readers: 3, WriterID: 2, Seed: mixSeed(base, 402), Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st1, err := c1.NewStore(StoreOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c2.NewStore(StoreOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}

	hists := make([]*checker.History, keys)
	for i := range hists {
		hists[i] = &checker.History{}
	}
	// Contended keys on pairwise distinct shards: concurrent flushes of
	// different shards are what the Combiner merges into batched rounds.
	keyNames := make([]string, 0, keys)
	usedShard := map[int]bool{}
	for i := 0; len(keyNames) < keys; i++ {
		name := fmt.Sprintf("piped-%d", i)
		if sh := st1.ShardOf(name); !usedShard[sh] {
			usedShard[sh] = true
			keyNames = append(keyNames, name)
		}
	}

	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		for p, st := range []*Store{st1, st2} {
			k, p, st := k, p+1, st
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 1; i <= writesPerProc; i++ {
					val := fmt.Sprintf("w%d-k%d-v%d", p, k, i)
					id := hists[k].Invoke(types.WriterID(p), checker.OpWrite, types.Value(val))
					if err := st.Put(keyNames[k], val); err != nil {
						t.Errorf("process %d put %s: %v", p, keyNames[k], err)
						return
					}
					hists[k].Respond(id, types.Value(val))
				}
			}()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < reads; i++ {
					id := hists[k].Invoke(types.Reader(2*k+p), checker.OpRead, "")
					v, err := st.Get(keyNames[k])
					if err != nil {
						t.Errorf("process %d get %s: %v", p, keyNames[k], err)
						return
					}
					hists[k].Respond(id, types.Value(v))
				}
			}()
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for k, h := range hists {
		if err := checker.CheckAtomicMW(h); err != nil {
			t.Errorf("key %d: %v", k, err)
		}
	}
	// Quiescent agreement across processes, per key.
	for k := 0; k < keys; k++ {
		v1, err1 := st1.Get(keyNames[k])
		v2, err2 := st2.Get(keyNames[k])
		if err1 != nil || err2 != nil {
			t.Fatalf("key %d: final reads: %v / %v", k, err1, err2)
		}
		if v1 != v2 {
			t.Errorf("key %d: processes disagree after quiescence: %q vs %q", k, v1, v2)
		}
	}
}
