package robustatomic

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"robustatomic/internal/checker"
	"robustatomic/internal/core"
	"robustatomic/internal/obs"
	"robustatomic/internal/shard"
	"robustatomic/internal/sim"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

// counterDelta returns a function reporting how far a process-wide counter
// has moved since counterDelta was called.
func counterDelta(name string) func() int64 {
	c := obs.Default.Counter(name)
	base := c.Value()
	return func() int64 { return c.Value() - base }
}

// onSchedule returns a client process of a cluster on the simulator — a
// link that frames its requests, as sockets do, so reads carry have-lists
// (a link that frames nothing is sent every request in full) — and a way to
// run a client body to completion with everything it left in transit
// delivered after it: every object has answered every round, so the counts
// are exact.
func onSchedule(t *testing.T, opts Options) (*Cluster, func(func())) {
	t.Helper()
	s := sim.New(sim.Config{Servers: 4})
	t.Cleanup(s.Close)
	s.Seed(opts.Seed)
	c, err := NewSimCluster(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, func(f func()) {
		t.Helper()
		s.Go(f)
		if err := s.Run(nil); err != nil {
			t.Fatal(err)
		}
		s.Drain()
	}
}

// TestStoreGetShipsEachValueOnce pins what value-eliding reads buy the keyed
// Store, with a foreign writer in the picture: a shard's table reaches a
// process once — when its own committer flushed it, never; when a foreign
// process wrote it, in the first query round that finds it — and every
// later Get moves timestamps only.
func TestStoreGetShipsEachValueOnce(t *testing.T) {
	a, run := onSchedule(t, Options{Faults: 1, Readers: 2, Seed: 61})
	b, err := a.Sibling(Options{Faults: 1, Readers: 2, WriterID: 1, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	sa, err := a.NewStore(StoreOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.NewStore(StoreOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	const S = 4
	sent := func(op func() error) int64 {
		t.Helper()
		d := counterDelta("server_read_values_sent_total")
		run(func() {
			if err := op(); err != nil {
				t.Error(err)
			}
		})
		return d()
	}
	put := func(st *Store, v string) int64 { return sent(func() error { return st.Put("k", v) }) }
	get := func(st *Store, want string) int64 {
		t.Helper()
		return sent(func() error {
			if v, err := st.Get("k"); err != nil || v != want {
				return fmt.Errorf("Get = %q, %v; want %q", v, err, want)
			}
			return nil
		})
	}

	put(sa, "v1")
	// The writer's own process: the committer seeded the pair it flushed.
	for i := 0; i < 2; i++ {
		if sent := get(sa, "v1"); sent != 0 {
			t.Errorf("own-writer Get %d was shipped %d values, want 0", i, sent)
		}
	}
	// A foreign process attaching cold: its first Get is shipped the
	// table by every object in round 1 (W == PW counts once), and nothing in
	// round 2 — t+1 identical copies admitted it.
	if sent := get(sb, "v1"); sent != S {
		t.Errorf("cold foreign attach was shipped %d values, want %d (one round, one copy per object)", sent, S)
	}
	if sent := get(sb, "v1"); sent != 0 {
		t.Errorf("second foreign Get was shipped %d values, want 0", sent)
	}
	// A foreign write: miss, the full pair once, then hits.
	put(sa, "v2")
	if sent := get(sb, "v2"); sent != S {
		t.Errorf("Get after a foreign Put was shipped %d values, want %d", sent, S)
	}
	if sent := get(sb, "v2"); sent != 0 {
		t.Errorf("next Get was shipped %d values, want 0", sent)
	}
	// And the flush path: a Put's certified read moves timestamps only while
	// the process's own table is current.
	if sent := put(sa, "v3"); sent != 0 {
		t.Errorf("a flush over its own table pulled %d values back, want 0", sent)
	}
}

// TestFreshReaderAgainstSettledCluster: a handle with an empty known-pair
// set — a new process, a new connection — reads a settled register. It must
// decide what a warm handle decides, in one round (it has nothing to
// discover), be shipped the value once per object, and nothing on its next
// read.
func TestFreshReaderAgainstSettledCluster(t *testing.T) {
	const readers = 3
	c, run := onSchedule(t, Options{Faults: 1, Readers: readers, Seed: 67})
	st, err := c.NewStore(StoreOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	table := strings.Repeat("v", 4096)
	run(func() {
		if err := st.Put("k", table); err != nil {
			t.Error(err)
		}
	})
	freshCl := c.mux.Client(types.Reader(1), 1)
	fresh := core.NewReader(freshCl, c.th, 1, readers)
	sent := counterDelta("server_read_values_sent_total")
	elided := counterDelta("server_read_values_elided_total")
	var p types.Pair
	run(func() { p, err = fresh.ReadPair() })
	if v, derr := shard.DecodeTable(string(p.Val)); err != nil || derr != nil || v["k"] != table {
		t.Fatalf("fresh reader decided %v, %v", p.TS, err)
	}
	if freshCl.Rounds != 1 || !fresh.Hit || !fresh.Elided {
		t.Errorf("first read of a fresh handle: %d rounds, hit=%v, elided=%v; want 1 round, a hit", freshCl.Rounds, fresh.Hit, fresh.Elided)
	}
	// 4 objects × the one register, one copy each (w = pw): nothing elided.
	if got, gotElided := sent(), elided(); got != 4 || gotElided != 0 {
		t.Errorf("cold read was shipped %d values and elided %d, want 4 and 0", got, gotElided)
	}
	warm := p
	sent = counterDelta("server_read_values_sent_total")
	run(func() { p, err = fresh.ReadPair() })
	if err != nil || p != warm || !fresh.Elided {
		t.Fatalf("warm read = %v, %v, elided=%v", p.TS, err, fresh.Elided)
	}
	if got := sent(); got != 0 {
		t.Errorf("warm read was shipped %d values, want 0", got)
	}
	if freshCl.Rounds != 2 || fresh.OneRound != 2 {
		t.Errorf("second read: %d rounds in total, %d one-round reads; want 2, 2", freshCl.Rounds, fresh.OneRound)
	}
}

// TestStoreAtomicDespiteFalseElide runs the keyed Store against an object
// that answers reads with unjustified elision claims, in parallel and under
// seeded asynchrony: every per-key history stays atomic, nothing errors, the false
// claims are counted and — where reads carry have-lists, on the scheduled link —
// the honest objects' elisions keep working.
func TestStoreAtomicDespiteFalseElide(t *testing.T) {
	const (
		shards  = 2
		keys    = 6
		writes  = 4
		getters = 2
		reads   = 8
	)
	seed := chaosSeedFor(t, 71, 3)
	opts := Options{Faults: 1, Readers: 2, Seed: seed, Tracer: chaosTracer(t)}
	eachChaosCluster(t, opts, func(t *testing.T, c *Cluster, run func(...func())) {
		st, err := c.NewStore(StoreOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.InjectFault(3, "falseelide"); err != nil {
			t.Fatal(err)
		}
		rejects := counterDelta("core_read_inflate_reject_total")
		inflated := counterDelta("core_read_inflated_total")
		hists := make([]*checker.History, keys)
		var clients []func()
		for k := 0; k < keys; k++ {
			hists[k] = &checker.History{}
			key := fmt.Sprintf("key-%02d", k)
			clients = append(clients, func() {
				for i := 1; i <= writes; i++ {
					val := fmt.Sprintf("k%d-v%d", k, i)
					id := hists[k].Invoke(types.WriterID(1), checker.OpWrite, types.Value(val))
					if err := st.Put(key, val); err != nil {
						t.Errorf("put %s: %v", key, err)
						return
					}
					hists[k].Respond(id, types.Value(val))
				}
			})
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
		if rejects() == 0 {
			t.Error("no false elision claim was counted")
		}
		if inflated() == 0 && c.mux.Framed() { // in process reads carry no have-list
			t.Error("no honest elision was inflated")
		}
	})
}

// TestGetRacesCommitterSeeding hammers one shard's known-pair set from both
// sides — the committer seeding each flushed table while the shard's reader
// snapshots, inflates from and reseeds it — so `go test -race` sees
// every access pattern the set supports. Per-key values only move forward.
func TestGetRacesCommitterSeeding(t *testing.T) {
	c, err := NewCluster(Options{Faults: 1, Readers: 3, Seed: 83})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.NewStore(StoreOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	const puts = 300
	done := make(chan struct{})
	oneRound := counterDelta("core_read_one_round_total")
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				v, err := st.Get("k")
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				n := 0
				if v != "" {
					fmt.Sscanf(v, "v%d", &n)
				}
				if n < last {
					t.Errorf("Get went backwards: %d after %d", n, last)
					return
				}
				last = n
			}
		}()
	}
	// Keep flushing until the Gets racing the flushes have decided on one
	// round's replies a few times over (whenever 2t+1 objects agreed: between
	// two flushes, or on the pair a flush had only pre-written so far) — a
	// Get racing this process's own flush on its shard stays atomic, hit or
	// not: no value above went backwards.
	for i := 1; i <= puts || oneRound() < 10; i++ {
		if i > 100*puts {
			t.Fatalf("%d flushes and only %d one-round Gets raced them", i, oneRound())
		}
		if err := st.Put("k", fmt.Sprintf("v%d-%s", i, strings.Repeat("x", 512))); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

// TestShardTableSizeBound: a table that a cold reader could not be sent in
// one frame is refused at Put time with a typed error — it must never be
// written, or the shard could be flushed but not read again — and the
// refusal leaves the shard fully usable.
func TestShardTableSizeBound(t *testing.T) {
	defer func(old int) { wire.MaxFrame = old }(wire.MaxFrame)
	wire.MaxFrame = 96 << 10 // pw and w: tables up to ~48 KB
	c, err := NewCluster(Options{Faults: 1, Readers: 2, Seed: 89})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.NewStore(StoreOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	chunk := strings.Repeat("x", 10<<10)
	for i := 0; i < 4; i++ { // 40 KB: fits
		if err := st.Put(fmt.Sprint("k", i), chunk); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := st.Put("k4", chunk); !errors.Is(err, ErrShardTableTooLarge) {
		t.Fatalf("put past the bound: %v, want ErrShardTableTooLarge", err)
	}
	// The refused key was not written, the others are intact, and the shard
	// keeps accepting mutations that fit — including one that makes room.
	for k, want := range map[string]string{"k0": chunk, "k3": chunk, "k4": ""} {
		if v, err := st.Get(k); err != nil || v != want {
			t.Errorf("Get %s after the refusal: %d bytes, %v; want %d bytes", k, len(v), err, len(want))
		}
	}
	if err := st.Put("small", "v"); err != nil {
		t.Errorf("small put after the refusal: %v", err)
	}
	if err := st.Delete("k0"); err != nil {
		t.Errorf("delete after the refusal: %v", err)
	}
	if err := st.Put("k4", chunk); err != nil {
		t.Errorf("put after making room: %v", err)
	}
	if v, err := st.Get("k4"); err != nil || v != chunk {
		t.Errorf("Get k4 = %d bytes, %v", len(v), err)
	}
	if v, err := st.Get("small"); err != nil || v != "v" {
		t.Errorf("Get small = %q, %v", v, err)
	}
}

// TestShardTableReadsBackCold: a table between a third and half of the frame
// bound Puts, and a process that holds nothing reads it back over sockets,
// its copy arriving in one frame per object.
func TestShardTableReadsBackCold(t *testing.T) {
	old := wire.MaxFrame
	wire.MaxFrame = 96 << 10
	t.Cleanup(func() { wire.MaxFrame = old }) // after every server has shut down
	addrs, _ := startServers(t, 4)
	const readers = 2
	table := map[string]string{}
	for i := 0; i < 4; i++ {
		table[fmt.Sprint("k", i)] = strings.Repeat(fmt.Sprint(i), 10<<10)
	}
	if size := len(shard.EncodeTable(table)); size <= wire.MaxFrame/(readers+1) || size >= wire.MaxFrame/2 {
		t.Fatalf("the table is %d bytes, want one between %d and %d", size, wire.MaxFrame/(readers+1), wire.MaxFrame/2)
	}
	writer, err := Connect(addrs, Options{Faults: 1, Readers: readers, Seed: 90})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	st, err := writer.NewStore(StoreOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range table {
		if err := st.Put(k, v); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}
	cold, err := Connect(addrs, Options{Faults: 1, Readers: readers, WriterID: 1, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	sc, err := cold.NewStore(StoreOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range table {
		if v, err := sc.Get(k); err != nil || v != want {
			t.Errorf("cold Get %s = %d bytes, %v; want %d bytes", k, len(v), err, len(want))
		}
	}
}
