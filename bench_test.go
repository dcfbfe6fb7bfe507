// Benchmark harness: one benchmark per experiment of the reproduction
// (DESIGN.md Section 4; results recorded in EXPERIMENTS.md).
//
//	go test -bench=. -benchmem
package robustatomic

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"robustatomic/internal/experiments"
	"robustatomic/internal/lowerbound"
	"robustatomic/internal/persist"
	"robustatomic/internal/proto"
	"robustatomic/internal/quorum"
	"robustatomic/internal/recurrence"
	"robustatomic/internal/regular"
	"robustatomic/internal/tcpnet"
	"robustatomic/internal/types"

	corereg "robustatomic/internal/core"
)

// BenchmarkE1ReadLowerBound executes the full Proposition 1 construction
// (Figure 1): the chain of partial runs pr_1..pr_{4k−1} with mechanical
// indistinguishability verification, until the atomicity-violation witness.
func BenchmarkE1ReadLowerBound(b *testing.B) {
	for _, t := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("t=%d_S=%d", t, 4*t), func(b *testing.B) {
			checks := 0
			for i := 0; i < b.N; i++ {
				rb := &lowerbound.ReadBound{T: t, Victim: lowerbound.FixedVictim{K: 2, R: 2}}
				out, err := rb.Run()
				if err != nil {
					b.Fatal(err)
				}
				if out.Violation == nil {
					b.Fatal("no violation")
				}
				checks = out.IndistinguishabilityChecks
			}
			b.ReportMetric(float64(checks), "indist-checks")
		})
	}
}

// BenchmarkE2WriteLowerBound executes the Lemma 1 construction (Figure 2)
// for k = 2..4 (k = 4 is the paper's illustrated instance: t = 10, S = 31).
func BenchmarkE2WriteLowerBound(b *testing.B) {
	for _, k := range []int{2, 3, 4} {
		tk := lowerbound.TMin(k)
		b.Run(fmt.Sprintf("k=%d_t=%d_S=%d", k, tk, 3*tk+1), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				wb := &lowerbound.WriteBound{K: k}
				out, err := wb.Run()
				if err != nil {
					b.Fatal(err)
				}
				if out.Violation == nil {
					b.Fatal("no violation")
				}
			}
		})
	}
}

// BenchmarkE3Recurrence evaluates the t_k recurrence, its closed form and
// the Lemma 2 log bound across k = 1..30.
func BenchmarkE3Recurrence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := recurrence.Table(30)
		for _, r := range rows {
			if r.T != r.TClosed {
				b.Fatal("closed form mismatch")
			}
		}
	}
}

// BenchmarkE4RoundComplexity measures the Section 5 complexity table: every
// implementation's worst-case write/read rounds across Byzantine scenarios.
func BenchmarkE4RoundComplexity(b *testing.B) {
	for _, t := range []int{1, 2} {
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := experiments.MeasureComplexity(t)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					// The paper's worst cases bound the adaptive reads from above
					// (these stable scenarios read in 1 round).
					if r.Name[0] == 'a' && (r.ReadRounds < 1 || r.ReadRounds > 4) {
						b.Fatalf("%s: %d read rounds", r.Name, r.ReadRounds)
					}
				}
			}
		})
	}
}

// BenchmarkE5Boundaries probes the resilience boundaries: Proposition 1
// applies at S = 4t but its partition is impossible at S = 4t+1, and the
// Lemma 1 partition scales per Proposition 2.
func BenchmarkE5Boundaries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for t := 1; t <= 4; t++ {
			if _, err := quorum.NewProp1Partition(4*t, t); err != nil {
				b.Fatal(err)
			}
			if _, err := quorum.NewProp1Partition(4*t+1, t); err == nil {
				b.Fatal("S = 4t+1 accepted: the construction must not apply")
			}
		}
		for k := 2; k <= 5; k++ {
			for c := 1; c <= 3; c++ {
				p, err := quorum.NewScaledLemma1Partition(k, c)
				if err != nil {
					b.Fatal(err)
				}
				t := int64(p.Faults())
				if int64(p.S()) != recurrence.Resilience(k, t) {
					b.Fatal("Proposition 2 resilience mismatch")
				}
			}
		}
	}
}

// BenchmarkE6RetryVsOptimal contrasts the pre-2011 retry baseline's read
// rounds with the optimal 4 under a staleness adversary.
func BenchmarkE6RetryVsOptimal(b *testing.B) {
	for _, t := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			var retryRounds, optRounds int
			for i := 0; i < b.N; i++ {
				rr, opt, converged, err := experiments.RetryContrast(t)
				if err != nil {
					b.Fatal(err)
				}
				if converged {
					b.Fatal("retry converged under perpetual staleness")
				}
				retryRounds, optRounds = rr, opt
			}
			b.ReportMetric(float64(retryRounds), "retry-rounds")
			b.ReportMetric(float64(optRounds), "optimal-rounds")
		})
	}
}

// BenchmarkE7LiveWrite measures in-process write latency (2 rounds on the
// adaptive fast path — the uncontended case) across fault budgets.
func BenchmarkE7LiveWrite(b *testing.B) {
	for _, t := range []int{1, 2} {
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			c, err := NewCluster(Options{Faults: t, Readers: 1, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			w := c.Writer()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Write(fmt.Sprintf("v%d", i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7LiveRead measures in-process 4-round read latency.
func BenchmarkE7LiveRead(b *testing.B) {
	for _, t := range []int{1, 2} {
		for _, readers := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("t=%d/R=%d", t, readers), func(b *testing.B) {
				c, err := NewCluster(Options{Faults: t, Readers: readers, Seed: 2})
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				if err := c.Writer().Write("x"); err != nil {
					b.Fatal(err)
				}
				r, err := c.Reader(1)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := r.Read(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE8TCP measures end-to-end write/read latency over loopback TCP
// against 4 storage daemons.
func BenchmarkE8TCP(b *testing.B) {
	th, err := quorum.NewThresholds(4, 1)
	if err != nil {
		b.Fatal(err)
	}
	var addrs []string
	for i := 1; i <= 4; i++ {
		s, err := tcpnet.NewServer(i, "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		addrs = append(addrs, s.Addr())
	}
	b.Run("write", func(b *testing.B) {
		m := tcpnet.NewMux(addrs)
		defer m.Close()
		wc := m.Client(types.Writer, 0)
		wc.RoundTimeout = 5 * time.Second
		w := corereg.NewWriter(wc, th)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.Write(types.Value(fmt.Sprintf("v%d", i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		m := tcpnet.NewMux(addrs)
		defer m.Close()
		rc := m.Client(types.Reader(1), 0)
		rd := corereg.NewReader(rc, th, 1, 2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rd.Read(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE9StorePut measures aggregate multi-key write throughput of the
// sharded Store layer across shard counts: 64 keys, parallel putters. Each
// shard is an independent single-writer register, so aggregate ops/sec
// scales with the shard count until the runtime saturates (compare ns/op
// across sub-benchmarks; lower is more throughput).
func BenchmarkE9StorePut(b *testing.B) {
	const keyCount = 64
	keys := make([]string, keyCount)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
	}
	for _, shards := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c, err := NewCluster(Options{Faults: 1, Readers: 2, Seed: 9})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			st, err := c.NewStore(StoreOptions{Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			for _, k := range keys { // instantiate every shard up front
				if err := st.Put(k, "warm"); err != nil {
					b.Fatal(err)
				}
			}
			var ctr int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := atomic.AddInt64(&ctr, 1)
					if err := st.Put(keys[i%keyCount], fmt.Sprintf("v%d", i)); err != nil {
						b.Error(err) // Fatal must not run off the benchmark goroutine
						return
					}
				}
			})
		})
	}
}

// BenchmarkE9StorePutCoalesced isolates the group-commit win: every putter
// hammers keys of ONE shard, so without write coalescing all operations
// would serialize into one 2-round protocol execution each, while with
// coalescing concurrent mutations share register writes. The reported
// writes/op metric is the average number of register writes one Put costs
// (1.0 = no batching; lower = batched).
func BenchmarkE9StorePutCoalesced(b *testing.B) {
	const keyCount = 16
	c, err := NewCluster(Options{Faults: 1, Readers: 1, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	st, err := c.NewStore(StoreOptions{Shards: 1})
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, keyCount)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
		if err := st.Put(keys[i], "warm"); err != nil {
			b.Fatal(err)
		}
	}
	sh := st.c.shard(1)
	var flushes int64
	orig := sh.modify
	sh.modify = func(fn func(types.Pair) (types.Value, types.Delta, error)) (types.Pair, error) {
		atomic.AddInt64(&flushes, 1)
		return orig(fn)
	}
	var ctr int64
	b.SetParallelism(8) // 8×GOMAXPROCS putters: contention even on small boxes
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := atomic.AddInt64(&ctr, 1)
			if err := st.Put(keys[i%keyCount], fmt.Sprintf("v%d", i)); err != nil {
				b.Error(err) // Fatal must not run off the benchmark goroutine
				return
			}
		}
	})
	b.ReportMetric(float64(atomic.LoadInt64(&flushes))/float64(b.N), "writes/op")
}

// BenchmarkE9StoreGet measures aggregate multi-key read throughput: one read
// per shard runs at a time (concurrent Gets of a shard share it), so the
// shard count bounds read parallelism.
func BenchmarkE9StoreGet(b *testing.B) {
	const keyCount = 64
	keys := make([]string, keyCount)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
	}
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c, err := NewCluster(Options{Faults: 1, Readers: 2, Seed: 10})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			st, err := c.NewStore(StoreOptions{Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			for i, k := range keys {
				if err := st.Put(k, fmt.Sprintf("v%d", i)); err != nil {
					b.Fatal(err)
				}
			}
			var ctr int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := atomic.AddInt64(&ctr, 1)
					if _, err := st.Get(keys[i%keyCount]); err != nil {
						b.Error(err) // Fatal must not run off the benchmark goroutine
						return
					}
				}
			})
		})
	}
}

// BenchmarkE16AdaptiveRead measures the adaptive Store read path in the
// three shapes the design targets. "stable" is the fast case: repeated Gets
// against an unchanging shard decide on the first query round (2t+1 objects
// agree) and serve the table from the certified-TS cache (no decision
// round, no write-back, no decode). "contended" hammers ONE hot single-shard store from all procs so
// concurrent Gets coalesce into shared protocol reads (the R-scaling
// collapse also visible in E7LiveRead R=1/4/8). "zipfmix" is the realistic
// blend: zipf-skewed Gets over 16 keys on 4 shards with a ~10% Put mix, so
// the certified-table cache is repeatedly invalidated and re-earned and
// elision degrades to the 4-round fallback around each write.
func BenchmarkE16AdaptiveRead(b *testing.B) {
	newStore := func(b *testing.B, seed int64, shards int) *Store {
		b.Helper()
		c, err := NewCluster(Options{Faults: 1, Readers: 4, Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		st, err := c.NewStore(StoreOptions{Shards: shards})
		if err != nil {
			b.Fatal(err)
		}
		return st
	}
	b.Run("stable", func(b *testing.B) {
		st := newStore(b, 16, 4)
		if err := st.Put("hot", "v"); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Get("hot"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("contended", func(b *testing.B) {
		st := newStore(b, 17, 1)
		if err := st.Put("hot", "v"); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := st.Get("hot"); err != nil {
					b.Error(err) // Fatal must not run off the benchmark goroutine
					return
				}
			}
		})
	})
	b.Run("zipfmix", func(b *testing.B) {
		const keyCount = 16
		st := newStore(b, 18, 4)
		keys := make([]string, keyCount)
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%02d", i)
			if err := st.Put(keys[i], "v0"); err != nil {
				b.Fatal(err)
			}
		}
		zipf := rand.NewZipf(rand.New(rand.NewSource(18)), 1.2, 1, keyCount-1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := keys[zipf.Uint64()]
			if i%10 == 9 {
				if err := st.Put(k, fmt.Sprintf("v%d", i)); err != nil {
					b.Fatal(err)
				}
			} else if _, err := st.Get(k); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE10PersistPut measures the durability tax on the sharded Store
// write path: the E9StorePut workload shape (64 keys, 8 shards, parallel
// putters) over loopback TCP against 4 daemons, with a volatile control and
// the three WAL fsync modes. "off" and "batch" share the same hot path (one
// write(2) per logged record; batch adds background fsyncs), so they should
// sit close together; "always" pays a group-committed fsync per batch of
// concurrent appends.
func BenchmarkE10PersistPut(b *testing.B) {
	const keyCount = 64
	keys := make([]string, keyCount)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
	}
	for _, tc := range []struct {
		name    string
		durable bool
		mode    persist.FsyncMode
	}{
		{"volatile", false, 0},
		{"fsync=off", true, persist.FsyncOff},
		{"fsync=batch", true, persist.FsyncBatch},
		{"fsync=always", true, persist.FsyncAlways},
	} {
		b.Run(tc.name, func(b *testing.B) {
			base := b.TempDir()
			var addrs []string
			for i := 1; i <= 4; i++ {
				opts := tcpnet.ServerOptions{}
				if tc.durable {
					opts.DataDir = fmt.Sprintf("%s/s%d", base, i)
					opts.Fsync = tc.mode
				}
				s, err := tcpnet.NewServerWith(i, "127.0.0.1:0", opts)
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				addrs = append(addrs, s.Addr())
			}
			c, err := Connect(addrs, Options{Faults: 1, Readers: 2, Seed: 12})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			st, err := c.NewStore(StoreOptions{Shards: 8})
			if err != nil {
				b.Fatal(err)
			}
			for _, k := range keys { // instantiate every shard up front
				if err := st.Put(k, "warm"); err != nil {
					b.Fatal(err)
				}
			}
			var ctr int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := atomic.AddInt64(&ctr, 1)
					if err := st.Put(keys[i%keyCount], fmt.Sprintf("v%d", i)); err != nil {
						b.Error(err) // Fatal must not run off the benchmark goroutine
						return
					}
				}
			})
		})
	}
}

// BenchmarkE11MultiWriterContention measures the multi-writer register's
// contention behavior over loopback TCP: W independent Connected processes
// (distinct WriterIDs, disjoint reader identities) put concurrently, either
// all hammering ONE key of one shard (every flush races every other) or
// each writing its own key on a distinct shard (no cross-writer contention,
// isolating the per-writer protocol cost). writers=1 is the post-refactor
// single-writer baseline; compare its ns/op against the recorded E10
// volatile numbers for the measured 2-round→3-round write latency tax.
func BenchmarkE11MultiWriterContention(b *testing.B) {
	for _, writers := range []int{1, 2, 4, 8} {
		for _, mode := range []string{"one-shard", "spread"} {
			b.Run(fmt.Sprintf("writers=%d/%s", writers, mode), func(b *testing.B) {
				var addrs []string
				for i := 1; i <= 4; i++ {
					s, err := tcpnet.NewServer(i, "127.0.0.1:0")
					if err != nil {
						b.Fatal(err)
					}
					defer s.Close()
					addrs = append(addrs, s.Addr())
				}
				const shards = 8
				stores := make([]*Store, writers)
				keys := make([]string, writers)
				usedShard := map[int]bool{}
				for w := 0; w < writers; w++ {
					c, err := Connect(addrs, Options{
						Faults:   1,
						Readers:  writers,
						WriterID: w,
						Seed:     int64(1100 + w),
					})
					if err != nil {
						b.Fatal(err)
					}
					defer c.Close()
					st, err := c.NewStore(StoreOptions{Shards: shards})
					if err != nil {
						b.Fatal(err)
					}
					stores[w] = st
					switch mode {
					case "one-shard":
						keys[w] = "contended"
					default: // spread: per-writer key on a distinct shard
						for i := 0; ; i++ {
							name := fmt.Sprintf("spread-%d-%d", w, i)
							if sh := st.ShardOf(name); !usedShard[sh] {
								usedShard[sh] = true
								keys[w] = name
								break
							}
						}
					}
					if err := st.Put(keys[w], "warm"); err != nil {
						b.Fatal(err)
					}
				}
				var ctr int64
				var wg sync.WaitGroup
				b.ResetTimer()
				for w := 0; w < writers; w++ {
					w := w
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							i := atomic.AddInt64(&ctr, 1)
							if i > int64(b.N) {
								return
							}
							if err := stores[w].Put(keys[w], fmt.Sprintf("w%d-v%d", w, i)); err != nil {
								b.Error(err) // Fatal must not run off the benchmark goroutine
								return
							}
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}

// discoverNext is the first round of the PR 4 write flow, kept as E12's
// always-discover baseline: one timestamp-only read round, then the successor
// of the highest timestamp a quorum exhibits (or of own, if larger). Every
// complete write reached a correct member of that quorum, so the successor
// dominates it. The objects here are honest; the flow's defence against a
// forged report went with it (core.Writer.Write bounds the same lead).
func discoverNext(r proto.Rounder, th quorum.Thresholds, own types.TS) (types.TS, error) {
	acc := regular.NewStateAcc(th)
	req := func(int) types.Message { return types.Message{Kind: types.MsgRead1, Flags: types.FlagNoValues} }
	if err := r.Round(proto.RoundSpec{Label: "WDISC", Req: req, Acc: acc}); err != nil {
		return types.TS{}, err
	}
	return types.MaxTS(acc.MaxTS(), own).Next(0), nil
}

// BenchmarkE12AdaptiveWrite quantifies the reclaimed multi-writer tax (the
// E12 experiment): the same register written through the adaptive fast path
// (2 rounds uncontended), through the unconditional PR 4 discovery flow
// (3 rounds — discoverNext then the write phases, measured live as the
// pre-adaptive baseline), and under forced contention (two writers, one
// always lagging two foreign writes, so every second write pays the
// 3-round fallback). The rounds/op metric makes the adaptivity visible
// directly rather than through ns/op.
func BenchmarkE12AdaptiveWrite(b *testing.B) {
	newWriterCluster := func(b *testing.B, hook func(string)) (*Cluster, *Writer) {
		c, err := NewCluster(Options{Faults: 1, Readers: 1, Seed: 12, RoundHook: hook})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(c.Close)
		return c, c.Writer()
	}
	b.Run("fast-uncontended", func(b *testing.B) {
		var rounds int64
		_, w := newWriterCluster(b, func(string) { atomic.AddInt64(&rounds, 1) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.Write(fmt.Sprintf("v%d", i)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(atomic.LoadInt64(&rounds))/float64(b.N), "rounds/op")
	})
	b.Run("discover-baseline", func(b *testing.B) {
		// The PR 4 flow, run live: an explicit discovery round before every
		// write — what every MWMR write cost before the fast path.
		c, err := NewCluster(Options{Faults: 1, Readers: 1, Seed: 13})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		th, err := quorum.NewThresholds(4, 1)
		if err != nil {
			b.Fatal(err)
		}
		rc := c.mux.Client(types.Writer, 0)
		rw := regular.NewWriterAt(rc, th, types.WriterReg, 0, types.TS{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			next, err := discoverNext(rc, th, rw.LastTS())
			if err != nil {
				b.Fatal(err)
			}
			if err := rw.WritePair(types.Pair{TS: next, Val: types.Value(fmt.Sprintf("v%d", i))}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(3, "rounds/op")
	})
	b.Run("contended-fallback", func(b *testing.B) {
		// Writer 2 stays two writes ahead of writer 1's cache, so every
		// writer-1 write conflicts and pays the 3-round fallback while
		// writer 2 rides the fast path — the adaptive mix under sustained
		// interference.
		var rounds int64
		hook := func(string) { atomic.AddInt64(&rounds, 1) }
		c1, err := NewCluster(Options{Faults: 1, Readers: 2, Seed: 14, WriterID: 1, RoundHook: hook})
		if err != nil {
			b.Fatal(err)
		}
		defer c1.Close()
		w1 := c1.Writer()
		th, err := quorum.NewThresholds(4, 1)
		if err != nil {
			b.Fatal(err)
		}
		// Writer 2 runs on the SAME in-process cluster via a direct client.
		w2 := corereg.NewWriterAt(proto.Observe(c1.mux.Client(types.WriterID(2), 0), 0, hook, nil), th, 2, types.TS{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w2.Write(types.Value(fmt.Sprintf("x%d", i))); err != nil {
				b.Fatal(err)
			}
			if err := w2.Write(types.Value(fmt.Sprintf("y%d", i))); err != nil {
				b.Fatal(err)
			}
			if err := w1.Write(fmt.Sprintf("v%d", i)); err != nil {
				b.Fatal(err)
			}
		}
		// rounds/op over the three writes of each iteration (2+2+3 when the
		// adaptive mix behaves as designed).
		b.ReportMetric(float64(atomic.LoadInt64(&rounds))/float64(3*b.N), "rounds/op")
	})
}

// BenchmarkE12StoreFlush measures the Store's flush — the certified
// read-modify-write: READ1 (a hit on a settled shard), PREWRITE, WRITE — and
// its no-op elision (the certified read alone, 1 round).
func BenchmarkE12StoreFlush(b *testing.B) {
	newStore := func(b *testing.B) *Store {
		c, err := NewCluster(Options{Faults: 1, Readers: 1, Seed: 15})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(c.Close)
		st, err := c.NewStore(StoreOptions{Shards: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := st.Put("k", "warm"); err != nil {
			b.Fatal(err)
		}
		return st
	}
	b.Run("certified", func(b *testing.B) {
		st := newStore(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.Put("k", fmt.Sprintf("v%d", i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("noop-elided", func(b *testing.B) {
		st := newStore(b)
		if err := st.Put("k", "same"); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.Put("k", "same"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE13PipelinedStorePut measures the pipelined multiplexed transport:
// 256 concurrent putters over a 64-shard Store against 4 loopback TCP daemons
// (one connection per daemon, demuxed by request ID, concurrent shard flushes
// coalesced into batched frames). Alongside ns/op it reports the per-Put
// latency distribution (p50-ns, p99-ns): pipelining must buy aggregate
// throughput without letting tail latency blow up. The lock-step baseline it
// was measured against (one in-flight request per connection, the wire
// behavior of generations ≤ 2) is gone with its option; its figure stays in
// EXPERIMENTS.md E13.
func BenchmarkE13PipelinedStorePut(b *testing.B) {
	const (
		shards  = 64
		clients = 256
	)
	b.Run("pipelined", func(b *testing.B) {
		var addrs []string
		for i := 1; i <= 4; i++ {
			s, err := tcpnet.NewServer(i, "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			addrs = append(addrs, s.Addr())
		}
		c, err := Connect(addrs, Options{Faults: 1, Readers: 1, Seed: 13})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		st, err := c.NewStore(StoreOptions{Shards: shards})
		if err != nil {
			b.Fatal(err)
		}
		keys := make([]string, clients)
		for i := range keys { // instantiate every shard up front
			keys[i] = fmt.Sprintf("e13-key-%03d", i)
			if err := st.Put(keys[i], "warm"); err != nil {
				b.Fatal(err)
			}
		}
		lats := make([][]int64, clients)
		for g := range lats {
			lats[g] = make([]int64, 0, b.N/clients+1)
		}
		var ctr int64
		var wg sync.WaitGroup
		b.ResetTimer()
		for g := 0; g < clients; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := atomic.AddInt64(&ctr, 1)
					if i > int64(b.N) {
						return
					}
					start := time.Now()
					if err := st.Put(keys[int(i)%clients], fmt.Sprintf("v%d", i)); err != nil {
						b.Error(err) // Fatal must not run off the benchmark goroutine
						return
					}
					lats[g] = append(lats[g], time.Since(start).Nanoseconds())
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		var all []int64
		for _, l := range lats {
			all = append(all, l...)
		}
		if len(all) == 0 {
			return
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		pct := func(p int) float64 { return float64(all[p*(len(all)-1)/100]) }
		b.ReportMetric(pct(50), "p50-ns")
		b.ReportMetric(pct(99), "p99-ns")
	})
}

// BenchmarkSimRegularRead profiles the decision procedure's fault-set
// enumeration cost (the documented O(S^t) engineering tradeoff).
func BenchmarkSimRegularRead(b *testing.B) {
	for _, t := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			c, err := NewCluster(Options{Faults: t, Readers: 1, Seed: 4})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			if err := c.Writer().Write("x"); err != nil {
				b.Fatal(err)
			}
			r, err := c.Reader(1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Read(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
