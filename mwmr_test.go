package robustatomic

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"robustatomic/internal/checker"
	"robustatomic/internal/server"
	"robustatomic/internal/tcpnet"
	"robustatomic/internal/types"
)

// hosts returns the in-process objects serving slots 1..S in c's view (nil
// for a vacant slot), for fault injection.
func (c *Cluster) hosts() []*server.Host {
	hs := make([]*server.Host, c.th.S)
	for i := range hs {
		hs[i], _ = c.host(i + 1)
	}
	return hs
}

// startServers launches n tcpnet storage daemons and returns their addresses
// plus handles (for fault injection).
func startServers(t *testing.T, n int) ([]string, []*tcpnet.Server) {
	t.Helper()
	addrs := make([]string, n)
	servers := make([]*tcpnet.Server, n)
	for i := 1; i <= n; i++ {
		s, err := tcpnet.NewServer(i, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		servers[i-1] = s
		addrs[i-1] = s.Addr()
	}
	return addrs, servers
}

// TestTwoProcessesConcurrentPutSameKey is the tentpole acceptance test: two
// separately Connected processes (distinct WriterIDs, disjoint reader
// identities) concurrently Put the same keys against real TCP daemons with a
// flaky Byzantine object injected, and every per-key history — writer-tagged,
// no total write order — passes the multi-writer atomicity checker. Run
// with -race.
//
// Each contended key gets its own shard: with cross-process contention,
// per-key atomicity is guaranteed for the contended key itself, while
// SIBLING keys of a contended shard are last-writer-wins at shard
// granularity (see the Store documentation) — a flush racing a foreign
// flush can re-assert its table over the loser's sibling-key updates, which
// the MW checker duly flags if keys share shards across processes.
func TestTwoProcessesConcurrentPutSameKey(t *testing.T) {
	const (
		shards        = 8
		keys          = 4
		writesPerProc = 4
		reads         = 4
	)
	addrs, servers := startServers(t, 4)
	// Object 2 drops about half its replies for the whole run: the protocol
	// must certify around it.
	servers[1].SetBehavior(server.Flaky{Rand: rand.New(rand.NewSource(99)), DropProb: 0.5})

	// "Process" 1 and "process" 2: independent Connects, distinct writer
	// identities, disjoint reader-identity sets over a shared total of 4.
	c1, err := Connect(addrs, Options{Faults: 1, Readers: 3, WriterID: 1, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Connect(addrs, Options{Faults: 1, Readers: 3, WriterID: 2, Seed: 102})
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
	// Pick contended keys landing on pairwise distinct shards.
	keyNames := make([]string, 0, keys)
	usedShard := map[int]bool{}
	for i := 0; len(keyNames) < keys; i++ {
		name := fmt.Sprintf("contended-%d", i)
		if sh := st1.ShardOf(name); !usedShard[sh] {
			usedShard[sh] = true
			keyNames = append(keyNames, name)
		}
	}
	keyOf := func(k int) string { return keyNames[k] }

	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		for p, st := range []*Store{st1, st2} {
			k, p, st := k, p+1, st
			wg.Add(1)
			go func() { // both processes write the SAME key concurrently
				defer wg.Done()
				for i := 1; i <= writesPerProc; i++ {
					val := fmt.Sprintf("w%d-k%d-v%d", p, k, i)
					id := hists[k].Invoke(types.WriterID(p), checker.OpWrite, types.Value(val))
					if err := st.Put(keyOf(k), val); err != nil {
						t.Errorf("process %d put %s: %v", p, keyOf(k), err)
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
					v, err := st.Get(keyOf(k))
					if err != nil {
						t.Errorf("process %d get %s: %v", p, keyOf(k), err)
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
	// Quiescent agreement: once all writes completed, both processes read
	// the same surviving value for each key, and it is one of the writes.
	for k := 0; k < keys; k++ {
		v1, err1 := st1.Get(keyOf(k))
		v2, err2 := st2.Get(keyOf(k))
		if err1 != nil || err2 != nil {
			t.Fatalf("key %d: final reads: %v / %v", k, err1, err2)
		}
		if v1 != v2 {
			t.Errorf("key %d: processes disagree after quiescence: %q vs %q", k, v1, v2)
		}
		var legal bool
		for p := 1; p <= 2; p++ {
			for i := 1; i <= writesPerProc; i++ {
				if v1 == fmt.Sprintf("w%d-k%d-v%d", p, k, i) {
					legal = true
				}
			}
		}
		if !legal {
			t.Errorf("key %d: final value %q was never written", k, v1)
		}
	}
}

// TestTwoWritersStandaloneRegister drives the standalone (non-Store) MWMR
// register from two Connected processes: concurrent Writes interleave at
// will, reads always certify one of the written values, and the history
// passes the multi-writer checker.
func TestTwoWritersStandaloneRegister(t *testing.T) {
	addrs, servers := startServers(t, 4)
	servers[2].SetBehavior(&server.Stale{})

	c1, err := Connect(addrs, Options{Faults: 1, Readers: 3, WriterID: 1, Seed: 201})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Connect(addrs, Options{Faults: 1, Readers: 3, WriterID: 2, Seed: 202})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	h := &checker.History{}
	var wg sync.WaitGroup
	for p, c := range []*Cluster{c1, c2} {
		p, c := p+1, c
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := c.Writer()
			for i := 1; i <= 5; i++ {
				val := fmt.Sprintf("w%d-v%d", p, i)
				id := h.Invoke(types.WriterID(p), checker.OpWrite, types.Value(val))
				if err := w.Write(val); err != nil {
					t.Errorf("writer %d: %v", p, err)
					return
				}
				h.Respond(id, types.Value(val))
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := c.Reader(p) // reader identities partitioned: p ∈ {1,2}
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 4; i++ {
				id := h.Invoke(types.Reader(p), checker.OpRead, "")
				v, err := r.Read()
				if err != nil {
					t.Errorf("reader %d: %v", p, err)
					return
				}
				h.Respond(id, types.Value(v))
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := checker.CheckAtomicMW(h); err != nil {
		t.Fatal(err)
	}
}

// TestMWTimestampsAreWriterTagged pins the wire-visible shape of the
// refactor: after two processes write, the certified pair's timestamp
// carries the winning writer's id, and probing an object shows the
// lexicographic (Seq, WriterID) order resolved the race.
func TestMWTimestampsAreWriterTagged(t *testing.T) {
	addrs, _ := startServers(t, 4)
	c1, err := Connect(addrs, Options{Faults: 1, Readers: 4, WriterID: 3, Seed: 301})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if err := c1.Writer().Write("from-w3"); err != nil {
		t.Fatal(err)
	}
	// A write returns on a quorum: the probed object may be the one still
	// applying it.
	var pw, w types.Pair
	waitUntil(t, "object 1 to apply the first write", func() bool {
		pw, w, err = probe(addrs[0], 0)
		return err != nil || !w.IsBottom()
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.TS.WID != 3 || w.TS.Seq != 1 {
		t.Errorf("written timestamp = %v, want seq 1 writer 3", w.TS)
	}
	if pw.TS.Less(w.TS) {
		t.Errorf("pw %v below w %v", pw.TS, w.TS)
	}
	// A second writer's write discovers seq 1 and must dominate it.
	c2, err := Connect(addrs, Options{Faults: 1, Readers: 4, WriterID: 1, Seed: 302})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Writer().Write("from-w1"); err != nil {
		t.Fatal(err)
	}
	var w2 types.Pair
	waitUntil(t, "object 1 to apply the second write", func() bool {
		_, w2, err = probe(addrs[0], 0)
		return err != nil || w.TS.Less(w2.TS)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !(w.TS.Less(w2.TS)) || w2.TS.WID != 1 || w2.TS.Seq != 2 {
		t.Errorf("second write timestamp = %v, want seq 2 writer 1 dominating %v", w2.TS, w.TS)
	}
	r, err := c1.Reader(1)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := r.Read(); err != nil || v != "from-w1" {
		t.Errorf("read = %q, %v", v, err)
	}
}
