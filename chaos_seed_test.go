package robustatomic

import (
	"flag"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"robustatomic/internal/obs"
	"robustatomic/internal/server"
	"robustatomic/internal/sim"
)

// chaosSeedFlag replays a chaos-enabled test under the exact fault streams
// of a logged failure — and, on the scheduled cluster, the exact
// interleaving: every such test routes its base seed through chaosSeedFor, so
// one flag pins the whole run.
var chaosSeedFlag = flag.Int64("chaos.seed", 0, "override the base seed of chaos-enabled tests (replay a logged failure)")

// chaosSeedFor returns the chaos-enabled test's base seed — def unless
// -chaos.seed overrides it — and registers a cleanup that, if the test
// fails, logs the seed, the mixed per-object fault streams it derives for
// the given object ids, and the one-flag replay command. Chaos tests are
// probabilistic in coverage but deterministic per seed; this makes any
// failure reproducible from the log line alone.
func chaosSeedFor(t *testing.T, def int64, sids ...int) int64 {
	t.Helper()
	seed := def
	if *chaosSeedFlag != 0 {
		seed = *chaosSeedFlag
	}
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		if len(sids) > 0 {
			per := make([]string, len(sids))
			for i, sid := range sids {
				per[i] = fmt.Sprintf("s%d=%d", sid, mixSeed(seed, int64(sid)))
			}
			t.Logf("chaos seed %d (mixed per-object fault seeds: %s)", seed, strings.Join(per, " "))
		} else {
			t.Logf("chaos seed %d", seed)
		}
		t.Logf("replay: go test -run '^%s$' -v -args -chaos.seed=%d", t.Name(), seed)
	})
	return seed
}

// chaosTracer returns a tracer for a chaos-enabled test's Options.Tracer,
// tracing every op, and registers a cleanup that — if the test fails — dumps
// the round traces of every failed op next to chaosSeedFor's replay command:
// which rounds ran, which objects answered, and (for multiplexed replies)
// which register sub-bundles each reply actually carried.
func chaosTracer(t *testing.T) *obs.Tracer {
	t.Helper()
	tr := obs.NewTracer(64, 1)
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		t.Logf("failed-op round traces (dump-on-failure):\n%s", tr.FormatFailed())
	})
	return tr
}

// eachChaosCluster runs a chaos test's body over both in-process clusters:
// "inline", whose clients run in parallel over the in-memory link (the
// interleaving is the Go scheduler's, and the race detector watches it), and
// "scheduled", the same stack on the simulator — seeded message latencies, one
// client running at a time, so opts.Seed replays the interleaving too. run
// runs the given client bodies concurrently, to completion.
func eachChaosCluster(t *testing.T, opts Options, body func(t *testing.T, c *Cluster, run func(clients ...func()))) {
	t.Run("inline", func(t *testing.T) {
		c, err := NewCluster(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		body(t, c, func(clients ...func()) {
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
	t.Run("scheduled", func(t *testing.T) {
		s := sim.New(sim.Config{Servers: 3*max(opts.Faults, 1) + 1})
		defer s.Close()
		s.Seed(opts.Seed)
		s.SetLatency(0, 200*time.Microsecond)
		c, err := NewSimCluster(s, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		body(t, c, func(clients ...func()) {
			for _, f := range clients {
				s.Go(f)
			}
			if err := s.Run(nil); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// TestStoreRoundCountsAgreeAcrossLinks: the Store that runs on the simulator
// is the shipped one — over the scheduled link as over the inline one, an
// uncontended Put costs 3 rounds and a stable Get 1 — and so is the operator
// plane: a Repair and a Move of a settled cluster cost the same rounds on
// those two links and over sockets.
func TestStoreRoundCountsAgreeAcrossLinks(t *testing.T) {
	var rounds atomic.Int64
	opts := Options{Faults: 1, Readers: 2, Seed: 5, RoundHook: func(string) { rounds.Add(1) }}
	const shards = 2
	migration := map[string][2]int64{} // link → rounds of a Repair, of a Move
	body := func(t *testing.T, c *Cluster, run func(...func()), fresh string) {
		st, err := c.NewStore(StoreOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		count := func(ops ...func() error) int64 {
			before := rounds.Load()
			run(func() {
				for _, op := range ops {
					if err := op(); err != nil {
						t.Error(err)
					}
				}
			})
			return rounds.Load() - before
		}
		put := func(v string) func() error { return func() error { return st.Put("k", v) } }
		get := func() error { _, err := st.Get("k"); return err }
		count(put("v0"), get) // warm-up: the shard's first flush and read
		if n := count(put("v1")); n != 3 {
			t.Errorf("uncontended Put: %d rounds, want 3", n)
		}
		if n := count(get); n != 1 {
			t.Errorf("stable Get: %d rounds, want 1", n)
		}
		repair := count(func() error { _, err := c.Repair(4, shards); return err })
		move := count(func() error { _, _, err := c.Move(2, fresh, shards); return err })
		migration[t.Name()] = [2]int64{repair, move}
	}
	eachChaosCluster(t, opts, func(t *testing.T, c *Cluster, run func(...func())) {
		blank, _ := server.NewHost(2, nil)
		body(t, c, run, c.reg.Add(blank)[0])
	})
	t.Run("sockets", func(t *testing.T) {
		addrs, _ := startServers(t, 5)
		c, err := Connect(addrs[:4], opts)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		body(t, c, func(clients ...func()) { clients[0]() }, addrs[4])
	})
	var want [2]int64
	for link, got := range migration {
		if want == [2]int64{} {
			want = got
		}
		if got != want || got[0] == 0 || got[1] <= got[0] {
			t.Errorf("rounds of (Repair, Move) per link = %v: %s differs, or a Move does not cost a Repair plus its config write", migration, link)
		}
	}
	if len(migration) != 3 {
		t.Errorf("measured %d links, want 3: %v", len(migration), migration)
	}
}
