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
// nothing yet can be sent in one frame: a cold read is answered with the
// shard register's pw and w, two tables while a flush is in flight, so the
// bound is half the wire's frame bound. A table written past it could never
// be read back by a fresh process. The whole batch is refused and nothing is
// written; spread the keys over more shards.
var ErrShardTableTooLarge = errors.New("robustatomic: shard table exceeds the readable size (frame bound / 2); use more shards")

// Flush-outcome counters and per-op latency distributions of the keyed Store
// layer, process-wide. The three flush counters partition completed flushes
// by outcome (no-op: the certified read alone, no write; written; failed).
var (
	mFlushNoop      = obs.Default.Counter("store_flush_noop_total")
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
// creates its writer and reader handles and reads nothing. A Store attached to
// a non-empty cluster (e.g. a fresh Connect to running daemons) resumes where
// previous writers stopped because every flush learns the register first: its
// certified read finds their table and timestamp and rebases onto them.
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
// A flush is one certified read-modify-write (core.Writer.Modify): read the
// register — one round on a settled shard, where the objects confirm the
// committer's own last pair by timestamp; two when the decision procedure
// must run — rebase onto a foreign table if one landed, apply the batch, and
// write the table at the successor timestamp: 3 rounds on a settled shard. A
// batch whose mutations all turn out to be no-ops (Put of the already-current
// value, Delete of an absent key) commits with the read alone and no register
// write at all. A failed flush is never re-applied: the pair it issued, if
// any, is finished at its own timestamp — by the epoch retry, or else by the
// shard's next flush (core.Writer.Resume) — never put back at a fresh one.
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
	// process last wrote, or read — that table mirrors (⊥ before any flush and
	// after a failed one): table is base's, decoded, but for what the ops
	// applied since did to the keys in touched. A flush writes base's encoding
	// with exactly those entries spliced (shard.Rewrite), and says so to the
	// objects, which hold base too: neither side moves or re-encodes the rest
	// of the table.
	table   map[string]string
	base    types.Pair
	touched []string
	// maxTable is the largest encoded table a flush may install (see
	// ErrShardTableTooLarge).
	maxTable int

	// tracer samples per-op round traces (nil when Options.Tracer is unset);
	// wTraced is the committer's traced round executor, which the flush
	// bracket points at the sampled OpTrace so every round the flush runs —
	// including its sub-rounds inside another leader's merged frame — lands
	// its per-object events on that trace.
	tracer  *obs.Tracer
	wTraced *proto.Traced

	// modify performs one certified read-modify-write of the shard register
	// (fn also says what its value derives from, see core.Writer.Modify):
	// the committer's one register operation, never called concurrently
	// (puts runs one flush at a time). Swappable in tests and benchmarks.
	modify func(fn func(cur types.Pair) (types.Value, types.Delta, error)) (types.Pair, error)
}

// traceOp brackets one Store-level operation (FLUSH, GET) for the sampled
// tracer: every round t runs until the returned function is called lands on
// the op's trace, and that call files the op with its outcome.
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
	s.shards = shard.NewLazy(opts.Shards, s.buildShard)
	return s, nil
}

// buildShard instantiates shard i's handles. Register instance 0 is the
// legacy standalone register, so shard i lives on instance i+1. Nothing is
// read here: the shard starts at ⊥, its first flush's certified read learns
// the register's table and timestamp (a rebase, as onto any foreign write),
// and a Get runs its own read.
func (s *Store) buildShard(i int) *storeShard {
	reg := i + 1
	// One known-pair set per shard, shared by the reader and the committer:
	// what either decided or flushed, neither is sent again
	// (internal/proto/known.go).
	known := proto.NewKnown(s.c.th)
	r := s.c.readerReg(s.c.readerID(), reg)
	r.useKnown(known)
	w := s.c.shardWriter(reg)
	w.useKnown(known)
	sh := &storeShard{
		idx:     i,
		table:   map[string]string{},
		reader:  r,
		modify:  w.modifyPair,
		tracer:  s.c.opts.Tracer,
		wTraced: w.traced,
		// A reply carries the pair's timestamps and a few dozen bytes of
		// framing besides the tables.
		maxTable: wire.MaxFrame/2 - 256,
	}
	sh.puts.Wait, sh.gets.Wait = s.c.wait, s.c.wait
	return sh
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
// batch it commits with the flush's certified read and no register write
// (the read finds the cached value still current, which is where the no-op
// linearizes).
func (s *Store) Put(key, value string) error {
	if start := opStart(); !start.IsZero() {
		defer mPutLat.RecordSince(start)
	}
	return s.shards.Get(s.router.Locate(key)).mutate(func(sh *storeShard) bool {
		if cur, ok := sh.table[key]; ok && cur == value {
			return false
		}
		sh.table[key] = value
		sh.touched = append(sh.touched, key)
		return true
	})
}

// Delete removes key (a write of the shard table without it). Deleting an
// absent key is a no-op mutation (read, not written — see Put).
func (s *Store) Delete(key string) error {
	if start := opStart(); !start.IsZero() {
		defer mDelLat.RecordSince(start)
	}
	return s.shards.Get(s.router.Locate(key)).mutate(func(sh *storeShard) bool {
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

// flush commits one batch of mutations: the certified read-modify-write of
// the shard register. What travels: the certified read carries timestamps
// only while the committer's base is current (its have-list names the base),
// every acknowledgement timestamps only; the PREWRITE carries the batch's
// edit of the table the objects hold — built from the keys the batch's ops
// touched (shard.Rewrite), a few hundred bytes for a one-key Put of a 36 KB
// table — and the WRITE a reference to the pair the PREWRITE left there. The
// table itself goes to an object only when it says it holds neither (it was
// cut off, restarted blank, or a foreign write got there first), or when the
// edit would not be the smaller message.
//
// The ops apply to the committer's cached table or — when the read decided a
// pair other than the base — to that pair's (a rebase), and the result is
// written at the certified successor; a batch that changed nothing is not
// written. A flush that fails or is refused is not re-applied: its ops are
// dropped with the mirror, which goes back to ⊥ — so the next flush rebases —
// and the pair it issued, if any, is finished first (Writer.retried).
func (sh *storeShard) flush(ops []func(*storeShard) bool) (err error) {
	end := traceOp(sh.tracer, sh.wTraced, "FLUSH", "%d ops", len(ops))
	defer func() {
		end(err)
		if err != nil && !errors.Is(err, ErrShardTableTooLarge) {
			mFlushFailed.Inc()
		}
	}()

	noop := false
	p, err := sh.modify(func(cur types.Pair) (types.Value, types.Delta, error) {
		rebased := cur.TS != sh.base.TS
		if rebased {
			t, err := shard.DecodeTable(string(cur.Val))
			if err != nil {
				// Unreachable against ≤ t Byzantine objects: the read only
				// returns values certified as genuinely written.
				return "", types.Delta{}, fmt.Errorf("robustatomic: shard register holds corrupt table: %w", err)
			}
			// Rebase: the foreign table replaces the cached one and the ops
			// apply against it.
			sh.table, sh.touched, sh.base = t, sh.touched[:0], cur
		}
		// dirty: the table differs from the base's once the ops applied.
		dirty := false
		for _, op := range ops {
			dirty = op(sh) || dirty
		}
		if noop = !dirty && !rebased; noop {
			// Elide only against OUR OWN completed head, or ⊥, which no
			// write has to complete: the certified read here is a regular
			// read with no write-back, so a rebased-onto foreign pair may be
			// an incomplete write that later atomic reads are permitted never
			// to return — a no-op anchored on it could vanish. Writing the
			// rebased table at a fresh successor (below) re-asserts it
			// instead; so a process's first no-op batch on a written shard
			// writes once.
			return "", types.Delta{}, core.SkipWrite
		}
		// The value: the base's encoding with the touched entries spliced,
		// or, over a base that cannot be edited (⊥), a fresh encoding — or a
		// refusal (see ErrShardTableTooLarge).
		from := types.Delta{Base: sh.base}
		v, edit, ok := shard.Rewrite(string(sh.base.Val), sh.touched, sh.table)
		if from.Edit = edit; !ok {
			v = types.Value(shard.EncodeTable(sh.table))
		}
		if len(v) > sh.maxTable {
			return "", types.Delta{}, ErrShardTableTooLarge
		}
		return v, from, nil
	})
	if err != nil {
		sh.table, sh.base, sh.touched = map[string]string{}, types.Pair{}, nil
		return err
	}
	if noop {
		mFlushNoop.Inc()
		return nil
	}
	// The register now holds p, which table mirrors; the head moved, so the
	// cached read decision can no longer recur.
	sh.invalidateCache()
	sh.base, sh.touched = p, sh.touched[:0]
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
	table, err := s.shards.Get(s.router.Locate(key)).sharedRead()
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
