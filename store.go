package robustatomic

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"robustatomic/internal/config"
	"robustatomic/internal/core"
	"robustatomic/internal/obs"
	"robustatomic/internal/proto"
	"robustatomic/internal/shard"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

// ErrShardTableTooLarge is returned by Put and Delete when the mutation's
// batch would grow its shard's encoded table past what a reader that holds
// nothing yet can be sent in one frame: a cold read is answered with one
// copy of the table per register — the shard's and each client process's
// write-back register — so the bound is the wire's frame bound divided by
// Readers+1. A table written past it could never be read back by a fresh
// process. The whole batch is refused and nothing is written; spread the
// keys over more shards.
var ErrShardTableTooLarge = errors.New("robustatomic: shard table exceeds the readable size (frame bound / (Readers+1)); use more shards")

// Flush-outcome counters and per-op latency distributions of the keyed Store
// layer, process-wide. The four flush counters partition completed flushes by
// the path that committed them (elided validation-only no-op, validated fast
// path, certified read-modify-write, failed — ops parked in uncommitted), so
// a scrape shows directly how often the adaptive committer wins its bet.
var (
	mFlushNoop      = obs.Default.Counter("store_flush_noop_total")
	mFlushFast      = obs.Default.Counter("store_flush_fast_total")
	mFlushCertified = obs.Default.Counter("store_flush_certified_total")
	mFlushFailed    = obs.Default.Counter("store_flush_failed_total")

	mPutLat = obs.Default.Hist(`store_op_latency_us{op="put"}`)
	mDelLat = obs.Default.Hist(`store_op_latency_us{op="delete"}`)
	mGetLat = obs.Default.Hist(`store_op_latency_us{op="get"}`)
)

// Read-path counters: how often the adaptive Get wins each of its bets.
// Coalesced counts Gets served by another Get's shared read (no protocol
// execution of their own); elided counts shard reads whose write-back the
// query rounds proved redundant; cache hits are shard reads that decided on
// the already-decoded cached table and skipped the decode.
var (
	mGetCoalesced = obs.Default.Counter("store_get_coalesced_total")
	mGetElided    = obs.Default.Counter("store_get_elided_total")
	mGetCacheHit  = obs.Default.Counter("store_get_cache_hit_total")
)

// opLatSample is the per-op latency sampling rate: 1-in-8 ops are timed
// (same convention as obs.RoundStats round latency). A no-op-elided Put is
// ~900ns; two time.Now calls plus a histogram record on every op costs a
// measurable slice of the <10% obs overhead budget, while 1-in-8 keeps the
// latency distribution honest and amortizes the cost to a few ns per op.
const opLatSample = 8

var opSeq atomic.Uint64

// opStart returns a start time for 1-in-opLatSample ops and the zero time
// for the rest.
func opStart() time.Time {
	if opSeq.Add(1)%opLatSample != 0 {
		return time.Time{}
	}
	return time.Now()
}

// StoreOptions configures the sharded multi-key Store layer.
type StoreOptions struct {
	// Shards is the number of independent atomic registers keys are hashed
	// onto. More shards mean more write parallelism and smaller per-shard
	// tables. Default 8.
	Shards int
}

// Store is a keyed Put/Get layer over N independent robust atomic registers
// (the paper's cloud key-value scenario, Section 1.1): keys are hashed onto
// shards, each shard is one MWMR atomic register hosted on the cluster's
// S = 3t+1 Byzantine-prone objects, and a shard's register value holds the
// shard's whole key→value table. Per-key atomicity is the projection of
// per-register atomicity, so every guarantee of the underlying protocol
// carries over key by key.
//
// Shards are instantiated lazily: the first operation touching a shard
// creates its writer and reader handles and recovers the shard's
// current contents and write timestamp from the cluster, so a Store attached
// to a non-empty cluster (e.g. a fresh Connect to running daemons) resumes
// where previous writers stopped.
//
// Store is safe for concurrent use, and — since the registers are
// multi-writer — so is the cluster: separately Connected processes may Put
// and Get concurrently, each under its own Options.WriterID (a shard's
// reads run as the process's one reader identity, one at a time).
// Within one process, writes to the same shard coalesce (group commit):
// mutations that arrive while a flush is in flight merge into one pending
// batch and commit together in the next flush, so N concurrent Puts to a
// shard cost far fewer than N protocol executions.
//
// A flush is ADAPTIVE: the committer first tries the validated fast path —
// one freshness round confirming no foreign write landed since its cached
// timestamp, then the two blind write phases installing the batch-applied
// table at the cached successor (3 rounds, and none of the certified
// read's fault-set-enumerating decision procedure). When the validation
// exposes a foreign write, nothing is written and the flush falls back to
// the certified read-modify-write of PR 4 (3 rounds when its certified read
// hits on its first round, 4 when it needs the decision round): read the
// current table, rebase onto the foreign state, re-apply the batch, write
// the merged table at the successor timestamp — and the shard stays on that
// certified path for the next several flushes (a contention penalty
// window) before probing the fast path again, so sustained cross-process
// contention costs at most one extra round every few flushes. A batch
// whose mutations all turn out to be no-ops (Put of the already-current
// value, Delete of an absent key) commits with a single validation round
// and no register write at all.
//
// Cross-process concurrency is last-writer-wins at SHARD granularity:
// registers cannot solve consensus, so two flushes that race on the same
// shard resolve to the lexicographically larger timestamp, and the loser's
// concurrent mutations of OTHER keys in that shard may be overwritten (its
// callers see success only after a covering flush, so a lost race surfaces
// as the next flush rebasing and re-asserting). Contending writes to the
// SAME key are ordinary concurrent register writes: one of the written
// values survives, atomically ordered — the guarantee the MWMR checker
// verifies. Partition writers across shards (or keys across shards) when
// cross-process write isolation matters.
type Store struct {
	c      *Cluster
	router shard.Router
	shards *shard.Lazy[*storeShard]
}

// storeShard is one shard's client-side state. table/base/touched mirror the
// register state as of this process's last flush; they are committer-private:
// puts runs exactly one flush at a time and orders consecutive ones
// (shard.Group), so they need no lock of their own.
type storeShard struct {
	idx int // shard index, for error/trace labels

	// Group commit, both directions (shard.Group): mutations that arrive
	// while a flush is in flight commit together in the next one, in call
	// order; Gets that arrive while a shard read is in flight share the next
	// one — a SINGLE protocol read (and write-back, when one is needed) that
	// runs inside every sharer's operation interval, so each may linearize
	// at its linearization point.
	puts shard.Group[func(*storeShard) bool, struct{}]
	gets shard.Group[struct{}, map[string]string]

	// Certified-table cache: the decoded table of the most recent read
	// decision, keyed by its register timestamp. A read deciding on the
	// cached timestamp skips the table decode; the cache is an accelerator
	// over certified protocol output, never a second copy of ground truth —
	// timestamps name at most one genuinely-written value, so a hit cannot
	// disagree with a decode. Invalidated whenever this process's committer
	// moves the register head (the entry can no longer be decided by a
	// correct read) and replaced whenever a read decides another timestamp
	// (gets runs one read at a time, so the latest decision is the newest).
	// cacheTab is shared read-only by every Get it serves and must never
	// alias the committer-private table.
	cacheMu  sync.Mutex
	cacheTS  types.TS
	cacheTab map[string]string

	// reader is the shard's one reader handle, this process's identity; gets
	// runs one read at a time, so it is never used concurrently.
	reader *Reader

	// Committer-private state below. base is the register pair — the one this
	// process last wrote, or read — that table mirrors (the initial pair before
	// any flush): table is base's, decoded, but for what the ops applied since
	// did to the keys in touched. A flush writes base's encoding with exactly
	// those entries spliced (shard.Rewrite), and says so to the objects, which
	// hold base too: neither side moves or re-encodes the rest of the table.
	table   map[string]string
	base    types.Pair
	touched []string
	// penalty counts upcoming flushes routed straight to the certified
	// read-modify-write: after a fast-path validation conflict the shard
	// assumes cross-process contention and stops paying the optimistic
	// round for a window, probing the fast path again once it drains.
	penalty int
	// maxTable is the largest encoded table a flush may install (see
	// ErrShardTableTooLarge). discard marks the cached table as holding the
	// ops of a batch refused for exceeding it: the next flush takes the
	// certified path and replaces the table with the register's.
	maxTable int
	discard  bool
	// uncommitted holds the ops of failed flushes: a timed-out flush may
	// have reached some objects, so the ops re-apply in every later flush
	// until one succeeds and re-asserts them at a higher timestamp — the
	// value a reader may already have certified never silently vanishes.
	uncommitted []func(*storeShard) bool

	// tracer samples per-op round traces (nil when Options.Tracer is unset);
	// wTraced is the committer's traced round executor, which the flush
	// bracket points at the sampled OpTrace so every round the flush runs —
	// including its sub-rounds inside another leader's merged frame — lands
	// its per-object events on that trace.
	tracer  *obs.Tracer
	wTraced *proto.Traced

	// The three committer-only register operations below are never called
	// concurrently (puts runs one flush at a time). Swappable in tests and
	// benchmarks; a nil writeClean disables the flush fast path entirely
	// (certified path only).
	//
	// modify performs one certified read-modify-write of the shard register
	// (fn also says what its value derives from, see core.Writer.Modify).
	modify func(fn func(cur types.Pair) (types.Value, types.Delta, error)) (types.Pair, error)
	// writeClean performs the validated fast-path write: one freshness
	// round, then v — which derives from its base as from says — installed at
	// the cached successor iff no foreign timestamp beyond the base's was in
	// circulation.
	writeClean func(v types.Value, from types.Delta) (types.Pair, bool, error)
	// validate runs the 1-round freshness check backing no-op elision.
	validate func() (bool, error)
}

// traceOp brackets one Store-level operation (RECOVER, FLUSH, GET) for the
// sampled tracer: every round t runs until the returned function is called
// lands on the op's trace, and that call files the op with its outcome.
// Without a tracer, or for an op sampled out, it is a no-op.
func traceOp(tr *obs.Tracer, t *proto.Traced, kind, format string, n int) func(error) {
	if tr != nil && t != nil {
		if op := tr.StartOp(kind, fmt.Sprintf(format, n)); op != nil {
			t.SetOp(op)
			return func(err error) {
				t.SetOp(nil)
				tr.EndOp(op, err)
			}
		}
	}
	return func(error) {}
}

// NewStore returns a keyed store over the cluster.
func (c *Cluster) NewStore(opts StoreOptions) (*Store, error) {
	if opts.Shards == 0 {
		opts.Shards = 8
	}
	// Shard i lives on register instance i+1; the topmost instance must stay
	// clear of the reserved configuration register.
	if opts.Shards >= config.Reg {
		return nil, fmt.Errorf("robustatomic: shard count %d collides with the reserved config register %d", opts.Shards, config.Reg)
	}
	router, err := shard.NewRouter(opts.Shards)
	if err != nil {
		return nil, fmt.Errorf("robustatomic: %w", err)
	}
	s := &Store{c: c, router: router}
	s.shards = shard.NewLazy(opts.Shards, s.buildShard, c.wait)
	return s, nil
}

// buildShard instantiates shard i: handles, then recovery. Register instance
// 0 is the legacy standalone register, so shard i lives on instance i+1.
func (s *Store) buildShard(i int) (*storeShard, error) {
	reg := i + 1
	// One known-pair set per shard, shared by the reader and the committer:
	// what either decided or flushed, neither is sent again
	// (internal/core/known.go).
	known := proto.NewKnown(s.c.th)
	r := s.c.readerReg(s.c.readerID(), reg)
	r.useKnown(known)
	// Recovery read: learn the shard's current table and the timestamp the
	// writer must exceed, so a new Store over an existing cluster neither
	// clobbers other keys in the shard nor reuses timestamps. Traced as its
	// own op: recovery reads race whatever chaos is in flight when a shard is
	// first touched, which is exactly when flakes have fired historically.
	end := traceOp(s.c.opts.Tracer, r.traced, "RECOVER", "shard %d", i)
	cur, err := r.readPair()
	end(err)
	if err != nil {
		return nil, fmt.Errorf("robustatomic: shard %d recovery: %w", i, err)
	}
	table, err := shard.DecodeTable(string(cur.Val))
	if err != nil {
		return nil, fmt.Errorf("robustatomic: shard %d recovery: %w", i, err)
	}
	w := s.c.shardWriter(reg, cur.TS)
	w.useKnown(known)
	sh := &storeShard{
		idx:        i,
		table:      table,
		base:       cur,
		reader:     r,
		modify:     w.modifyPair,
		writeClean: w.writeCleanPair,
		validate:   w.validateClean,
		tracer:     s.c.opts.Tracer,
		wTraced:    w.traced,
		// Each write-back copy carries a "seq.wid|" prefix and every
		// sub-reply a few dozen bytes of framing.
		maxTable: wire.MaxFrame/(s.c.opts.Readers+1) - 256,
	}
	sh.puts.Wait, sh.gets.Wait = s.c.wait, s.c.wait
	return sh, nil
}

// Shards returns the shard count N.
func (s *Store) Shards() int { return s.router.N() }

// ShardOf returns the shard index key routes to.
func (s *Store) ShardOf(key string) int { return s.router.Locate(key) }

// Put stores value under key. The mutation commits in the shard's next
// flush, shared with any other of this process's mutations that coalesced
// into the same batch; Put returns when that flush completes. Concurrent
// Puts of the same key — from this or any other process with a distinct
// WriterID — are concurrent register writes: one value survives, atomically.
// A Put of the value the key already holds is a no-op mutation: alone in a
// batch it commits with a single freshness-validation round and no register
// write (the round certifies the cached value is still current, which is
// where the no-op linearizes).
func (s *Store) Put(key, value string) error {
	if start := opStart(); !start.IsZero() {
		defer mPutLat.RecordSince(start)
	}
	sh, err := s.shards.Get(s.router.Locate(key))
	if err != nil {
		return err
	}
	return sh.mutate(func(sh *storeShard) bool {
		if cur, ok := sh.table[key]; ok && cur == value {
			return false
		}
		sh.table[key] = value
		sh.touched = append(sh.touched, key)
		return true
	})
}

// Delete removes key (a write of the shard table without it). Deleting an
// absent key is a no-op mutation (validated, not written — see Put).
func (s *Store) Delete(key string) error {
	if start := opStart(); !start.IsZero() {
		defer mDelLat.RecordSince(start)
	}
	sh, err := s.shards.Get(s.router.Locate(key))
	if err != nil {
		return err
	}
	return sh.mutate(func(sh *storeShard) bool {
		if _, ok := sh.table[key]; !ok {
			return false
		}
		delete(sh.table, key)
		sh.touched = append(sh.touched, key)
		return true
	})
}

// mutate queues one key mutation and blocks until a flush covering it
// completes (group commit). Ops apply to the committer's table in call
// order, so a batch holding a Put and a Delete of the same key resolves to
// whichever came last. The batch linearizes its mutations at its single
// register write — per-key atomicity is preserved because each key's value
// still changes only at register writes, in the order the ops applied.
func (sh *storeShard) mutate(op func(*storeShard) bool) error {
	_, _, err := sh.puts.Do(op, func(ops []func(*storeShard) bool) (struct{}, error) {
		return struct{}{}, sh.flush(ops)
	})
	return err
}

// slowFlushPenalty is how many flushes stay on the certified path after a
// fast-path validation conflict before the fast path is probed again.
// Sustained cross-process contention thus pays the optimistic round on at
// most one flush in slowFlushPenalty+1, keeping contended throughput at the
// certified path's level, while a single transient conflict costs only a
// short window of certified (3- or 4-round) flushes.
const slowFlushPenalty = 8

// flush commits one batch of mutations. What travels: the freshness round and
// every acknowledgement carry timestamps only; the PREWRITE carries the
// batch's edit of the table the objects hold — built from the keys the batch's
// ops touched (shard.Rewrite), a few hundred bytes for a one-key Put of a
// 36 KB table — and the WRITE a reference to the pair the PREWRITE left
// there. The table itself goes to an object only when it says it holds
// neither (it was cut off, restarted blank, or a foreign write got there
// first), or when the edit would not be the smaller message.
//
// Fast path (no penalty outstanding, no failed-flush
// ops pending): apply the batch to the committer's cached table and try the
// validated write — 3 rounds, or 1 validation round and NO register write
// if every op was a no-op. A validation conflict (foreign
// write landed) falls through to the certified read-modify-write, which
// rebases: decode the certified current table, re-apply the ops (they are
// plain set/delete closures, so re-application is idempotent and respects
// call order), and write the merged result at the certified successor —
// unless the re-applied batch changed nothing, in which case the write is
// elided and the certified read alone linearizes it. Failed flushes park
// their ops in uncommitted, which forces the certified path (and a real
// write) until one succeeds.
func (sh *storeShard) flush(ops []func(*storeShard) bool) (err error) {
	end := traceOp(sh.tracer, sh.wTraced, "FLUSH", "%d ops", len(ops))
	defer func() {
		end(err)
		if err != nil && !errors.Is(err, ErrShardTableTooLarge) {
			mFlushFailed.Inc()
		}
	}()
	// dirty tracks whether the cached table differs from what the register
	// held at the base once the ops are applied. Ops from failed flushes
	// always count as dirty: their values may have reached some objects at
	// an abandoned timestamp, so they must re-assert at a fresh one even if
	// the cached table already reflects them.
	dirty := false
	applied := false
	apply := func() {
		dirty = dirty || len(sh.uncommitted) > 0
		for _, op := range sh.uncommitted {
			if op(sh) {
				dirty = true
			}
		}
		for _, op := range ops {
			if op(sh) {
				dirty = true
			}
		}
		applied = true
	}

	// encode renders the cached table as the register value to install — the
	// base's encoding with the touched entries spliced, or, over a base that
	// cannot be edited (⊥), a fresh encoding — or refuses the batch (see
	// ErrShardTableTooLarge): the cached table keeps the refused ops, so it is
	// marked for replacement by the register's.
	encode := func() (types.Value, types.Delta, error) {
		from := types.Delta{Base: sh.base}
		v, edit, ok := shard.Rewrite(string(sh.base.Val), sh.touched, sh.table)
		if from.Edit = edit; !ok {
			v = types.Value(shard.EncodeTable(sh.table))
		}
		if len(v) > sh.maxTable {
			sh.discard = true
			return "", types.Delta{}, ErrShardTableTooLarge
		}
		return v, from, nil
	}
	// wrote records that the register now holds p, which table mirrors.
	wrote := func(p types.Pair) {
		if p.TS != sh.base.TS {
			// The register head moved; the cached read decision can no
			// longer recur.
			sh.invalidateCache()
		}
		sh.base, sh.touched = p, sh.touched[:0]
	}

	if sh.writeClean != nil && sh.penalty == 0 && len(sh.uncommitted) == 0 && !sh.discard {
		apply()
		if !dirty {
			ok, err := sh.validate()
			if err == nil && ok {
				mFlushNoop.Inc()
				return nil
			}
			if err == nil {
				// Validation conflict: enter the contention window exactly
				// as the dirty branch does, so no-op-heavy workloads under
				// sustained cross-process contention do not re-pay the
				// failed probe round on every flush.
				sh.penalty = slowFlushPenalty
			}
			// The certified path below re-checks from genuinely-read state
			// (and surfaces round errors).
		} else {
			v, from, err := encode()
			if err != nil {
				return err
			}
			p, ok, err := sh.writeClean(v, from)
			if err != nil {
				sh.uncommitted = append(sh.uncommitted, ops...)
				return err
			}
			if ok {
				wrote(p)
				mFlushFast.Inc()
				return nil
			}
			sh.penalty = slowFlushPenalty
		}
	} else if sh.penalty > 0 {
		sh.penalty--
	}

	rebased := false
	p, err := sh.modify(func(cur types.Pair) (types.Value, types.Delta, error) {
		if cur.TS != sh.base.TS || sh.discard {
			t, err := shard.DecodeTable(string(cur.Val))
			if err != nil {
				// Unreachable against ≤ t Byzantine objects: the read only
				// returns values certified as genuinely written.
				return "", types.Delta{}, fmt.Errorf("robustatomic: shard register holds corrupt table: %w", err)
			}
			// Rebase: the foreign table replaces the cached one (discarding
			// any fast-path application of the ops) and the ops re-apply
			// against it from scratch.
			// (A table refused as too large is replaced the same way; its
			// register pair is our own completed head, so the no-op elision
			// below stays open to it.)
			sh.table, sh.touched = t, sh.touched[:0]
			dirty, applied, rebased = false, false, cur.TS != sh.base.TS
			sh.base, sh.discard = cur, false
		}
		if !applied {
			apply()
		}
		if !dirty && !rebased {
			// Elide only against OUR OWN completed head (or the recovery
			// read's, which an atomic read's write-back already asserted):
			// the certified read here is a regular read with no write-back,
			// so a rebased-onto foreign pair may be an incomplete write that
			// later atomic reads are permitted never to return — a no-op
			// anchored on it could vanish. Writing the rebased table at a
			// fresh successor (below) re-asserts it instead, exactly as the
			// pre-adaptive flush always did.
			return "", types.Delta{}, core.SkipWrite
		}
		return encode()
	})
	if errors.Is(err, ErrShardTableTooLarge) {
		// Refused, not failed: nothing was sent, so the ops must not be
		// re-asserted by later flushes — but earlier failed flushes' ops
		// applied alongside them still must.
		return err
	}
	if err != nil {
		sh.uncommitted = append(sh.uncommitted, ops...)
		return err
	}
	sh.uncommitted = nil
	wrote(p)
	mFlushCertified.Inc()
	return nil
}

// Get returns the value under key. The read path is adaptive at every
// layer: an atomic shard read costs 1 communication round when 2t+1 objects
// agree on every register and certify the result as completely written, 2
// when only the decision round can tell (the write-back is elided either
// way; 4 rounds worst case, which the paper proves optimal), concurrent
// Gets on the shard coalesce into one shared protocol read (group commit,
// symmetric to Put's flush batching), and a read deciding on the cached
// certified timestamp skips decoding the shard table. Absent keys read as
// the empty string, matching the register initial value ⊥.
func (s *Store) Get(key string) (val string, err error) {
	if start := opStart(); !start.IsZero() {
		defer mGetLat.RecordSince(start)
	}
	sh, err := s.shards.Get(s.router.Locate(key))
	if err != nil {
		return "", err
	}
	table, err := sh.sharedRead()
	return table[key], err // a failed read's table is nil
}

// sharedRead returns the shard table as decided by a protocol read executed
// within the caller's operation interval — this caller's own, or a shared
// one the caller coalesced into (storeShard.gets).
func (sh *storeShard) sharedRead() (map[string]string, error) {
	table, led, err := sh.gets.Do(struct{}{}, sh.readTable)
	if !led {
		mGetCoalesced.Inc()
	}
	return table, err
}

// readTable performs one atomic shard read and returns the decoded table,
// consulting and refreshing the certified-table cache.
func (sh *storeShard) readTable([]struct{}) (tab map[string]string, err error) {
	r := sh.reader
	end := traceOp(sh.tracer, r.traced, "GET", "shard %d", sh.idx)
	defer func() { end(err) }()
	p, err := r.readPair()
	if err != nil {
		return nil, err
	}
	if r.elided() {
		mGetElided.Inc()
	}
	sh.cacheMu.Lock()
	tab, ts := sh.cacheTab, sh.cacheTS
	sh.cacheMu.Unlock()
	if tab != nil && p.TS == ts {
		mGetCacheHit.Inc()
		return tab, nil
	}
	tab, err = shard.DecodeTable(string(p.Val))
	if err != nil {
		// Unreachable against ≤ t Byzantine objects: reads only return
		// values certified by t+1 objects, hence genuinely written ones.
		return nil, fmt.Errorf("robustatomic: shard %d returned corrupt table: %w", sh.idx, err)
	}
	sh.cacheMu.Lock()
	sh.cacheTS, sh.cacheTab = p.TS, tab
	sh.cacheMu.Unlock()
	return tab, nil
}

// invalidateCache drops the certified-table cache entry. Called by the
// committer whenever it moves the register head past the cached timestamp:
// the entry stays CORRECT (a timestamp names at most one certified value),
// but no future read can decide it, so holding a dead decoded table (tens
// of KB on a few-hundred-key shard) only costs memory.
func (sh *storeShard) invalidateCache() {
	sh.cacheMu.Lock()
	sh.cacheTab = nil
	sh.cacheMu.Unlock()
}
