package robustatomic

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"robustatomic/internal/obs"
)

// TestStoreRoundsCountedUnderOwnLabels: over loopback sockets every Store
// flush runs through the Combiner, and its rounds are still counted on
// /metrics under their own labels — READ1, PREWRITE, WRITE — with no hook and
// no tracer configured, not filed under one "BATCH" family below the
// Combiner. A traced flush keeps its per-object events on every round,
// including a round that rode in another leader's merged frame.
func TestStoreRoundsCountedUnderOwnLabels(t *testing.T) {
	const pairs = 20
	addrs, _ := startServers(t, 4)
	rounds := func(label string) int64 {
		return obs.Default.Counter(`proto_rounds_total{transport="mux",label="` + label + `"}`).Value()
	}
	labels := []string{"READ1", "PREWRITE", "WRITE", "AREAD1"}
	before := map[string]int64{}
	for _, l := range labels {
		before[l] = rounds(l)
	}

	c, err := Connect(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.NewStore(StoreOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pairs; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := st.Put(key, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
		if v, err := st.Get(key); err != nil || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %s = %q, %v", key, v, err)
		}
	}
	for _, l := range labels {
		if d := rounds(l) - before[l]; d < pairs {
			t.Errorf("%d Put+Get pairs counted %d %s rounds, want ≥ %d", pairs, d, l, pairs)
		}
	}
	for _, name := range obs.Default.Snapshot().Names() {
		if strings.Contains(name, `label="BATCH`) {
			t.Errorf("round series %s exists: merged rounds are counted per label above the Combiner", name)
		}
	}

	// Traced: concurrent flushes of different shards merge into batched
	// rounds; every round of every flush still carries its own events.
	tracer := obs.NewTracer(1<<10, 1)
	tc, err := Connect(addrs, Options{WriterID: 1, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	tst, err := tc.NewStore(StoreOptions{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, 8)
	for i, used := 0, map[int]bool{}; len(keys) < 8; i++ {
		if k := fmt.Sprintf("b%d", i); !used[tst.ShardOf(k)] {
			used[tst.ShardOf(k)] = true
			keys = append(keys, k)
		}
	}
	subs := obs.Default.Hist("tcpnet_client_batch_subs")
	riders := func() int64 { h := subs.Merged(); return int64(h.Mean()*float64(h.Count())+0.5) - h.Count() }
	ridersBefore := riders()
	for gen := 0; gen < 50 && riders() == ridersBefore; gen++ {
		var wg sync.WaitGroup
		for _, k := range keys {
			wg.Add(1)
			go func(k string) {
				defer wg.Done()
				if err := tst.Put(k, fmt.Sprintf("%s.%d", k, gen)); err != nil {
					t.Error(err)
				}
			}(k)
		}
		wg.Wait()
	}
	if riders() == ridersBefore {
		t.Fatal("no flush round rode in another leader's batch in 50 generations of 8 concurrent Puts")
	}
	quorum := tc.Objects() - tc.Faults()
	flushes := 0
	for _, op := range tracer.Recent() {
		if op.Name != "FLUSH" {
			continue
		}
		flushes++
		seen := map[string]bool{}
		for _, rt := range op.Rounds {
			seen[rt.Label] = true
			sent, replied := map[int]bool{}, map[int]bool{}
			for _, ev := range rt.Events {
				switch ev.Kind {
				case "send":
					sent[ev.SID] = true
				case "reply":
					replied[ev.SID] = true
				}
			}
			if len(sent) < quorum || len(replied) < quorum {
				t.Errorf("flush round %s traced sends to %d and replies from %d objects, want ≥ %d each:\n%s", rt.Label, len(sent), len(replied), quorum, op.Format())
			}
		}
		for _, l := range []string{"READ1", "PREWRITE", "WRITE"} {
			if !seen[l] {
				t.Errorf("traced flush has no %s round:\n%s", l, op.Format())
			}
		}
	}
	if flushes == 0 {
		t.Fatal("no flush traced")
	}
}
