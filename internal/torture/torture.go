package torture

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"robustatomic"
	"robustatomic/internal/checker"
	"robustatomic/internal/obs"
	"robustatomic/internal/types"
)

// Config parameterizes one torture run. Seed, Scenario and Mode fully
// determine the fault schedule; the workload shape determines its trigger
// points. In ModeLive they determine the whole execution.
type Config struct {
	Seed     int64
	Scenario Scenario
	Mode     Mode
	// Faults is t (the cluster runs S = 3t+1 objects). Default 1.
	Faults int
	// Shards is the Store's register count; it must comfortably exceed Keys
	// (the workload puts every key on its own shard, see pickKeys). Default
	// 4×Keys.
	Shards int
	// Keys is the workload's key-space size. Default 16.
	Keys int
	// Clients is the number of concurrent simulated clients, split across
	// two logical processes (distinct WriterIDs).
	Clients int
	// OpsPerClient is each client's operation count.
	OpsPerClient int
	// ReadFrac is the probability an operation is a Get; of the rest,
	// DeleteFrac are Deletes and the remainder Puts. Defaults 0.4 and 0.15.
	ReadFrac, DeleteFrac float64
	// ReadHeavy flips the default ReadFrac to 0.85, concentrating the
	// schedule's fault windows on the adaptive read path: write-back
	// elision (and its refusal under partial writes), shard read
	// coalescing under concurrent Gets, and certified-table cache
	// invalidation all get exercised while the faults fire. An explicit
	// ReadFrac overrides it.
	ReadHeavy bool
	// Budget bounds each per-key linearization search. Zero selects the
	// harness default (2M nodes, 30s) rather than an unlimited search.
	Budget checker.Budget
	// Dir is where ModeTCP daemons put their persist data dirs (required
	// for tcp; ignored live).
	Dir string
	// Logf, when set, receives progress lines (schedule, fired events,
	// summary).
	Logf func(format string, args ...any)
}

func (c *Config) defaults() {
	if c.Faults == 0 {
		c.Faults = 1
	}
	if c.Keys == 0 {
		c.Keys = 16
	}
	if c.Shards == 0 {
		c.Shards = 4 * c.Keys
	}
	if c.ReadFrac == 0 {
		c.ReadFrac = 0.4
		if c.ReadHeavy {
			c.ReadFrac = 0.85
		}
	}
	if c.DeleteFrac == 0 {
		c.DeleteFrac = 0.15
	}
	if c.Budget == (checker.Budget{}) {
		c.Budget = checker.Budget{MaxNodes: 2_000_000, Deadline: 30 * time.Second}
	}
}

// Result summarizes a passed torture run.
type Result struct {
	Schedule Schedule
	Ops      int // operations attempted by the workload
	Failed   int // operations that errored mid-fault (recorded as pending)
	Keys     int // distinct keys with non-empty histories
	Checked  int // operations decided by the per-key atomicity checks
	// Digest is the simulator's hash of every scheduling step of a ModeLive
	// run (sim.Digest; zero in ModeTCP): a replayed seed reproduces it.
	Digest uint64
}

// pickKeys chooses n workload keys that hash onto n DISTINCT shards.
// One-key-per-shard keeps the cross-process workload inside the Store's
// guarantee envelope: contending writes to the SAME key are atomically
// ordered register writes, but a process's writes to OTHER keys sharing a
// shard can lose a cross-process flush race (shard-granularity LWW — the
// Store documents that cross-process write isolation requires partitioning
// across shards). Single-shard keys make per-key atomicity exactly
// per-register atomicity, which is what the checker decides.
func pickKeys(st *robustatomic.Store, n int) ([]string, error) {
	if st.Shards() < n {
		return nil, fmt.Errorf("torture: %d keys need ≥%d shards, store has %d", n, n, st.Shards())
	}
	keys := make([]string, 0, n)
	used := make(map[int]bool, n)
	for i := 0; len(keys) < n; i++ {
		if i > 256*n {
			return nil, fmt.Errorf("torture: could not place %d keys on distinct shards (got %d of %d)", n, len(keys), st.Shards())
		}
		key := fmt.Sprintf("k%03d", i)
		if sh := st.ShardOf(key); !used[sh] {
			used[sh] = true
			keys = append(keys, key)
		}
	}
	return keys, nil
}

// Run executes one seeded torture schedule against a real cluster and
// decides every per-key history. It returns a non-nil error if any history
// is non-atomic (or undecidable within the budget), if the quiesced
// processes disagree on any key's value, or if the cluster breaks in a way
// the fault schedule does not license. The returned error embeds the seed
// and the full schedule; the test harness prints the replay command.
func Run(cfg Config) (Result, error) {
	cfg.defaults()
	sched, err := Plan(cfg.Scenario, cfg.Seed, cfg.Clients*cfg.OpsPerClient, 3*cfg.Faults+1)
	if err != nil {
		return Result{}, err
	}
	res, _, err := execute(cfg, sched)
	return res, err
}

// execute runs the workload of cfg (defaults applied) under sched and also
// returns the per-key histories it decided.
func execute(cfg Config, sched Schedule) (res Result, hists map[string]*checker.History, err error) {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	totalOps := cfg.Clients * cfg.OpsPerClient
	logf("%s", sched)

	r, err := setup(cfg, cfg.Dir)
	if err != nil {
		return Result{Schedule: sched}, nil, fmt.Errorf("torture: setup: %w", err)
	}
	defer r.close()
	mix := readMix()
	// Dump-on-failure: every op of both processes is traced, so any failed
	// run carries the round-level anatomy of the ops that died (which rounds
	// ran, which objects answered, what each reply bundle carried) next to
	// the schedule the replay command reproduces.
	defer func() {
		if err != nil {
			err = fmt.Errorf("%w\n== failed-op round traces (dump-on-failure)\n%s", err, r.tracer.FormatFailed())
		}
	}()

	stores := make([]*robustatomic.Store, len(r.procs))
	for p, c := range r.procs {
		st, err := c.NewStore(robustatomic.StoreOptions{Shards: cfg.Shards})
		if err != nil {
			return Result{Schedule: sched}, nil, fmt.Errorf("torture: store %d: %w", p, err)
		}
		stores[p] = st
	}
	keys, err := pickKeys(stores[0], cfg.Keys)
	if err != nil {
		return Result{Schedule: sched}, nil, err
	}

	var (
		rec     recorder
		done    atomic.Int64 // completed operation attempts (success or failure)
		failed  atomic.Int64
		aborted atomic.Bool

		evNext int
		evErr  error
	)
	// fire applies every event whose threshold the global op counter has
	// crossed. The crossing client's goroutine applies them, serialized by
	// the clients' lock — the others finish the operation they are in beside
	// the event (a Repair, a Move) and wait here; an event that cannot be
	// applied aborts the whole run (the schedule IS the experiment — a
	// half-applied schedule proves nothing).
	fire := func(count int64) {
		r.Lock()
		defer r.Unlock()
		for evNext < len(sched.Events) && int64(sched.Events[evNext].At) <= count && evErr == nil {
			ev := sched.Events[evNext]
			evNext++
			logf("op %d: firing %s", count, ev)
			if err := r.ctrl.apply(ev); err != nil {
				evErr = err
				aborted.Store(true)
			}
		}
	}

	for ci := 0; ci < cfg.Clients; ci++ {
		r.Go(func() {
			proc := ci % len(r.procs)
			st := stores[proc]
			self := types.WriterID(10 + ci)
			rng := rand.New(rand.NewSource(cfg.Seed ^ int64(1+ci)*0x9e3779b9))
			bo := Backoff{Base: time.Millisecond, Cap: 30 * time.Millisecond, Rng: rand.New(rand.NewSource(int64(ci)))}
			for op := 0; op < cfg.OpsPerClient && !aborted.Load(); op++ {
				key := keys[rng.Intn(len(keys))]
				var err error
				switch {
				case rng.Float64() < cfg.ReadFrac:
					id := rec.invoke(key, self, checker.OpRead, "")
					var v string
					if v, err = st.Get(key); err != nil {
						rec.abandon(id)
					} else {
						rec.respond(id, types.Value(v))
					}
				case rng.Float64() < cfg.DeleteFrac:
					id := rec.invoke(key, self, checker.OpWrite, types.Bottom)
					if err = st.Delete(key); err != nil {
						rec.abandon(id)
					} else {
						rec.respond(id, "")
					}
				default:
					// Values are unique per attempt (writer-tagged), never
					// retried, so the checker's distinct-values precondition
					// holds by construction.
					val := types.Value(fmt.Sprintf("c%d-%d", ci, op))
					id := rec.invoke(key, self, checker.OpWrite, val)
					if err = st.Put(key, string(val)); err != nil {
						rec.abandon(id)
					} else {
						rec.respond(id, "")
					}
				}
				if err != nil {
					if n := failed.Add(1); n <= 16 {
						logf("op failure %d (client %d, key %s): %v", n, ci, key, err)
					}
					r.Sleep(bo.Next(err))
				} else {
					bo.Reset()
				}
				fire(done.Add(1))
			}
		})
	}
	if err = r.Run(nil); err != nil {
		return Result{Schedule: sched}, nil, fmt.Errorf("torture: %w\n%s", err, sched)
	}

	if evErr != nil {
		return Result{Schedule: sched}, nil, fmt.Errorf("torture: schedule event failed: %w\n%s", evErr, sched)
	}
	fire(int64(totalOps)) // defensive: nothing may be left pending
	if err := r.ctrl.quiesce(3*cfg.Faults + 1); err != nil {
		return Result{Schedule: sched}, nil, fmt.Errorf("torture: quiesce: %w\n%s", err, sched)
	}

	// Quiescent agreement: with every fault healed, each process reads every
	// key sequentially; the reads join the per-key histories (so atomicity
	// covers them too) and the processes' views must agree exactly. Then the
	// operator's doctor sweeps every object's raw state: no register may hold
	// two values at one timestamp (ROADMAP residual 3a) — which no read above
	// would notice.
	final := make([]map[string]string, len(r.procs))
	var readErr error
	r.Go(func() {
		for p := range r.procs {
			final[p] = make(map[string]string, len(keys))
			self := types.Reader(1000 + p)
			for _, key := range keys {
				id := rec.invoke(key, self, checker.OpRead, "")
				v, err := stores[p].Get(key)
				if err != nil {
					readErr = fmt.Errorf("quiescent read of %q by process %d failed on a healed cluster: %w", key, p, err)
					return
				}
				rec.respond(id, types.Value(v))
				final[p][key] = v
			}
		}
		if rep := r.ctrl.operator.Doctor(cfg.Shards); len(rep.Diverged)+len(rep.Skipped) > 0 {
			readErr = fmt.Errorf("doctor on the quiesced cluster: diverged timestamps %+v, objects unreadable %v", rep.Diverged, rep.Skipped)
		}
	})
	if err = errors.Join(r.Run(nil), readErr); err != nil {
		return Result{Schedule: sched}, nil, fmt.Errorf("torture: %w\n%s", err, sched)
	}
	for _, key := range keys {
		if final[0][key] != final[1][key] {
			return Result{Schedule: sched}, nil, fmt.Errorf(
				"torture: quiescent disagreement on %q: process 0 reads %q, process 1 reads %q\n%s",
				key, final[0][key], final[1][key], sched)
		}
	}

	hists = rec.histories()
	checked, err := checkAll(hists, cfg.Budget)
	if err != nil {
		return Result{Schedule: sched}, nil, fmt.Errorf("torture: %w\n%s", err, sched)
	}
	res = Result{
		Schedule: sched,
		Ops:      totalOps,
		Failed:   int(failed.Load()),
		Keys:     len(hists),
		Checked:  checked,
	}
	if s, live := r.clients.(*simClients); live {
		res.Digest = s.Digest()
	}
	logf("torture pass: %d ops (%d failed mid-fault), %d keys, %d ops checker-accepted",
		res.Ops, res.Failed, res.Keys, res.Checked)
	now := readMix()
	one, elided, fallback := now[0]-mix[0], now[1]-mix[1], now[2]-mix[2]
	logf("read path: %d atomic reads, %d in 1 round, %d in 2, %d with write-back (hit ratio %.2f); %d rounds deferred a suspect",
		elided+fallback, one, elided-one, fallback, float64(one)/float64(max(elided+fallback, 1)), now[3]-mix[3])
	return res, hists, nil
}

// readMix samples the process-wide read-path counters (core.Reader): reads
// decided in one round, reads that elided the write-back (those included),
// reads that paid it — and the rounds tcpnet deferred a suspect's request in.
func readMix() [4]int64 {
	var out [4]int64
	for i, name := range [...]string{"core_read_one_round_total", "core_read_elided_total", "core_read_fallback_total", "tcpnet_round_deferred_total"} {
		out[i] = obs.Default.Counter(name).Value()
	}
	return out
}
