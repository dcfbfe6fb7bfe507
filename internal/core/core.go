// Package core implements the paper's upper bound (Section 5) promoted to
// multi-writer: a robust multi-writer multi-reader ATOMIC register with
// 3-round writes and 4-round reads over ONE MWMR regular register, shared by
// all writers and readers and hosted on S = 3t+1 Byzantine-prone storage
// objects, with multi-writer ABD-style (Seq, WriterID) timestamps. The
// classical regular → atomic transformation of [4, 20] (the paper's footnote
// 6) gives every reader a write-back register of its own; here a read writes
// its result back into the shared register, at the pair's own timestamp and
// with its own value — so a read queries one register, not R+1, and an object
// holds one copy of a settled value.
//
// Writes are ADAPTIVE (fastpath.go): an optimistic proposal certified by its
// own PREWRITE's acknowledgements (nothing at or above it reported) costs 2
// rounds, the paper's SWMR optimum; interference 3, Byzantine-inflated
// reports 5. The lexicographic (Seq, WriterID) order totally orders even
// timestamps picked concurrently.
//
// Reads are ADAPTIVE too, twice over. A read is the regular read of the
// shared register the writers' certified read also runs (regular.ReadPairOn):
// (1) when its FIRST query round shows 2t+1 objects agreeing on one w pair it
// is decided on the spot (the fast hit, regular.ReadAcc: the pair is genuine
// and no newer write completed), else the decision round runs; (2) the
// write-back — PREWRITE and WRITE of the chosen pair, each by reference: an
// object that holds the pair promotes it, one that does not is sent it — is
// ELIDED whenever the query rounds already show the pair complete: S−t
// distinct objects w-reported its timestamp or higher, which a hit exhibits
// by construction. So a stable register reads in 1 round, one whose objects
// disagree but show the evidence in 2; only reads concurrent with a write, or
// whose evidence a Byzantine minority withheld, pay the 4 rounds Prop. 1
// proves necessary in the worst case. One flow serves both failure models:
// the hit key includes the reply's token (0 throughout the plain model), and
// a write-back carries the token its pair was read with.
//
// Completeness: a read returns p only once p is complete on the shared
// register — the query rounds showed it (elision), or its own write-back's
// S−t WRITE acknowledgements made it so. Of S−t distinct objects holding w at
// or above p's timestamp ts at most t lie, so at least S−2t ≥ t+1 CORRECT
// objects durably hold w ≥ ts (w slots are monotone at correct objects). A
// later DECISION: under the true fault set F*, the level ℓ* = min over those
// t+1 holders of their smallest w-report satisfies ℓ* ≥ ts and counts |F*| +
// (t+1) ≥ 2t+1 supporters, so λ(F*) ≥ ts and the decision's choice dominates
// it. A later HIT: its 2t+1 agreeing objects and those S−2t holders cannot be
// disjoint, and the holder among them reports w ≥ ts.
//
// Atomicity argument (Section 2.2 properties, multi-writer form): (1) values
// travel only from writers through correct objects — a write-back re-asserts
// a genuine pair under its own timestamp, so no reader issues a timestamp and
// each still names one value — hence reads return written values; (2) a read
// succeeding a complete write at timestamp ts obtains a pair ≥ ts (the
// regular read's decision dominates every complete write); (3) pairs cannot
// be observed before some writer issues them; (4) a read rd2 succeeding rd1
// sees a pair at least rd1's result, by completeness — no new/old inversion
// (DESIGN.md, "Adaptive reads"). Writes are ordered by their timestamps, which
// respect real time: a write's discovery round intersects every earlier
// complete write's WRITE quorum in a correct object, so its timestamp
// strictly dominates.
package core

import (
	"errors"
	"fmt"

	"robustatomic/internal/obs"
	"robustatomic/internal/proto"
	"robustatomic/internal/quorum"
	"robustatomic/internal/regular"
	"robustatomic/internal/types"
)

// Writer is one of the atomic register's writers, identified by its
// WriterID. Concurrent writers must use distinct ids; one writer handle is
// single-goroutine like every client of the model.
type Writer struct {
	rounder proto.Rounder
	th      quorum.Thresholds
	wid     int64
	// pw is the two-phase pair writer every flow drives — token-carrying in
	// the secret model (regular.Writer.NextToken), which is that model's
	// whole difference on the write side. Its LastTS is the last COMPLETED
	// write's timestamp; IssuedTS additionally covers proposals that never
	// completed and is what successor timestamps must exceed.
	pw *regular.Writer

	// The certified read's round state, reused by every read (as Reader's
	// is), conditioned on the known-pair set.
	cert    *regular.ReadAcc
	certMux proto.RegAcc

	// open is the pair the last operation issued and has not seen complete;
	// certified says whether it is known to dominate every write completed
	// before the operation began (Resume).
	open      types.Pair
	certified bool
}

// NewWriter returns writer 0's handle (the deployment's default writer).
func NewWriter(r proto.Rounder, th quorum.Thresholds) *Writer {
	return NewWriterAt(r, th, 0, types.TS{})
}

// NewWriterAt returns the handle of writer wid resuming from a known last
// timestamp (its own, or the highest foreign timestamp it observed).
func NewWriterAt(r proto.Rounder, th quorum.Thresholds, wid int64, last types.TS) *Writer {
	return NewWriterOn(r, th, wid, regular.NewWriterAt(r, th, types.WriterReg, wid, last))
}

// NewWriterOn returns the handle of writer wid over an already-built pair
// writer of the shared register (the secret model supplies one that attaches
// a fresh token to every phase).
func NewWriterOn(r proto.Rounder, th quorum.Thresholds, wid int64, pw *regular.Writer) *Writer {
	w := &Writer{rounder: r, th: th, wid: wid, pw: pw, cert: regular.NewReadAcc(th)}
	w.cert.MultiWriter = true
	w.certMux.Part(types.WriterReg, types.Message{Kind: types.MsgRead1}, w.cert)
	w.UseKnown(proto.NewKnown(th))
	return w
}

// UseKnown makes the writer record its writes in, and condition its
// certified reads on, k instead of the handle's private set — the keyed
// Store shares one set per shard between its committer and its reader. A pair
// is recorded when its timestamp is issued, before the PREWRITE puts it into
// circulation (regular.Writer.UseKnown).
func (w *Writer) UseKnown(k *proto.Known) {
	w.certMux.UseKnown(k)
	w.pw.UseKnown(k)
}

// maxDiscoveryLead bounds how far past the writer's own knowledge an
// UNCERTIFIED discovery result may jump before the writer insists on
// certifying it. Honest sequence numbers advance by one per write, so any
// genuine lead above this bound (~4 billion intervening writes) is
// astronomically unlikely between two operations of one process — while a
// Byzantine object forging near-MaxInt64 reports exceeds it on the first
// try and gets routed to the certified read, which it cannot inflate. The
// bound also rate-limits slow-burn inflation: installed sequence numbers
// can grow by at most this much per (genuine) write, pushing ceiling
// exhaustion beyond 2^31 writes even under a sustained attack.
const maxDiscoveryLead = 1 << 32

// certifiedNext runs a certified regular read of the shared register (one
// round on a fast hit, two with the full decision procedure — see
// regular.ReadAcc) and returns the current pair plus the writer's successor
// timestamp above it and own. Unlike a raw quorum maximum, the read only
// returns genuine pairs, so not even the timestamp can be Byzantine-inflated.
// The rounds are conditioned on the known-pair set: a writer whose last pair
// is still the register's current one moves timestamps, not values.
func (w *Writer) certifiedNext(own types.TS) (types.Pair, types.TS, error) {
	cur, err := regular.ReadPairOn(w.rounder, &w.certMux, w.cert, [2]string{"READ1", "READ2"}, nil)
	if err != nil {
		return types.Pair{}, types.TS{}, fmt.Errorf("core: certified discovery: %w", err)
	}
	w.certMux.Seed(types.WriterReg, cur)
	return cur, types.MaxTS(cur.TS, own).Next(w.wid), nil
}

// Modify performs a certified read-modify-write: a regular read of the
// shared register (1 round on a fast hit, else 2 with the decision
// procedure — either way not even the timestamp can be Byzantine-inflated),
// then fn maps the current pair to the value to install, which the regular
// write's two rounds store at the successor timestamp: 3 or 4 rounds, the
// keyed Store's every flush. A fn returning SkipWrite elides the write
// phases and yields the (certified) current pair unchanged: 1 or 2 rounds.
// The successor is based on the writer's IssuedTS, so a pair abandoned by an
// earlier failed attempt is never re-issued with a different value. The
// certified read is conditioned on the known-pair set, and the installed
// pair recorded in it.
//
// Modify is NOT an atomic read-modify-write across writers — registers
// cannot solve consensus, so two concurrent Modifys may read the same pair
// and the lexicographically larger writer's result prevails. It guarantees
// that the installed value derives from a genuine pair at least as fresh as
// the last complete write, which gives last-writer-wins semantics with no
// lost update unless the writes genuinely race.
//
// fn also says what its value derives from (types.Delta, zero: nothing) —
// cur, edited, for the Store — and the PREWRITE then carries the edit to the
// objects that hold the base (regular.Writer.WriteDerived).
func (w *Writer) Modify(fn func(cur types.Pair) (types.Value, types.Delta, error)) (types.Pair, error) {
	w.open = types.Pair{}
	cur, next, err := w.certifiedNext(w.pw.IssuedTS())
	if err != nil {
		return types.Pair{}, err
	}
	v, from, err := fn(cur)
	if errors.Is(err, SkipWrite) {
		return cur, nil
	}
	if err != nil {
		return types.Pair{}, err
	}
	if next.Seq <= 0 {
		return types.Pair{}, fmt.Errorf("core: register sequence space exhausted")
	}
	p := types.Pair{TS: next, Val: v}
	if err := w.install(p, from); err != nil {
		return types.Pair{}, err
	}
	return p, nil
}

// LastTS returns the timestamp of the last completed write.
func (w *Writer) LastTS() types.TS { return w.pw.LastTS() }

// Read-path counters: which of its bets the adaptive read won. Every read
// ends in exactly one of the first three (1 round; 2 rounds; write-back
// paid — 4 rounds, since a hit is its own completeness evidence), so their
// mix IS the round mix; the miss counter counts the reads the first round
// did not decide (`storctl stats` derives the ratios).
var (
	mReadOneRound = obs.Default.Counter("core_read_one_round_total")
	mReadElided   = obs.Default.Counter("core_read_elided_total")
	mReadFallback = obs.Default.Counter("core_read_fallback_total")
	mMissShared   = obs.Default.Counter(`core_read_hit_miss_total{reg="shared"}`)
)

// Reader is one of the atomic register's readers — in either model: the hit
// key includes the reply's token, and a write-back carries the token its pair
// was read with.
type Reader struct {
	rounder proto.Rounder
	th      quorum.Thresholds
	known   *proto.Known

	// The read's round state, reused by every read (as Writer's certified
	// read's is): the shared register's accumulator and the rounds asking it,
	// conditioned on the known-pair set — steady-state reads allocate nothing
	// here.
	acc    *regular.ReadAcc
	mux    proto.RegAcc
	noteFn func() string

	// Hit reports whether the last ReadPair was decided on its first query
	// round (no decision round); Elided whether it skipped the write-back (the
	// query rounds showed the chosen pair complete). Both: a one-round read.
	Hit    bool
	Elided bool
	// OneRound counts reads decided on the first query round alone,
	// FastReads those that elided the write-back (one-round reads included)
	// and FallbackReads those that paid it (instrumentation; the round hook
	// gives finer grain).
	OneRound      int
	FastReads     int
	FallbackReads int
}

// NewReader returns the handle of reader idx out of `readers` total readers.
// The read uses neither: no reader owns a register or issues a timestamp, so
// any number of handles, of any identity and any process lifetime, may read
// at once. (The identity's register of the classical transformation survives
// in the benchmark module's settle only, with EncodePair and Seq.)
func NewReader(r proto.Rounder, th quorum.Thresholds, idx, readers int) *Reader {
	if idx < 1 || idx > readers {
		panic(fmt.Sprintf("core: reader index %d out of 1..%d", idx, readers))
	}
	rd := &Reader{rounder: r, th: th, acc: regular.NewReadAcc(th)}
	rd.acc.MultiWriter = true
	rd.mux.Part(types.WriterReg, types.Message{Kind: types.MsgRead1}, rd.acc)
	rd.noteFn = func() string {
		if rd.acc.Hit() {
			return "hit"
		}
		return "miss"
	}
	rd.UseKnown(proto.NewKnown(th))
	return rd
}

// UseKnown makes the reader condition its reads on (and feed) k instead of
// the handle's private set. Handles of one register instance in one process
// should share a set: what one of them decided, none of them is sent again.
func (r *Reader) UseKnown(k *proto.Known) {
	r.known = k
	r.mux.UseKnown(k)
}

// Seq is what the classical transformation's reader counted its write-back
// register's timestamps by; a reader here issues none, so it is always 0.
func (r *Reader) Seq() int64 { return 0 }

// Read performs the adaptive atomic read: 1 round when the first round's
// replies hit, 2 when only the decision round could tell, 4 when the chosen
// pair must be written back.
func (r *Reader) Read() (types.Value, error) {
	p, err := r.ReadPair()
	return p.Val, err
}

// ReadPair performs the adaptive atomic read, returning the chosen
// timestamp-value pair.
func (r *Reader) ReadPair() (types.Pair, error) {
	// The regular read of the shared register: AREAD1 alone on a hit, the
	// decision round AREAD2 after it on a miss.
	p, err := regular.ReadPairOn(r.rounder, &r.mux, r.acc, [2]string{"AREAD1", "AREAD2"}, r.noteFn)
	if err != nil {
		return types.Pair{}, fmt.Errorf("core: %w", err)
	}
	if r.Hit = r.acc.Hit(); !r.Hit {
		mMissShared.Inc()
	}
	// What was just decided is what the next read will most likely be
	// answered with: offer it, so the objects need not send it again.
	r.mux.Seed(types.WriterReg, p)

	// Write-back elision: S−t distinct objects w-reported p's timestamp (or
	// higher), so p is already complete — at least t+1 correct objects durably
	// hold it, which forces every later read, hit or decided, to return a pair
	// at or above it (the package documentation's completeness argument) — and
	// the 2-round write-back re-asserting it is pure cost. A hit IS that
	// evidence. Byzantine objects cannot fake the condition (t forged reports
	// < S−t) and can at worst withhold it, costing rounds, never safety.
	if r.Elided = r.acc.WSupport(p.TS) >= r.th.Quorum(); r.Elided {
		r.FastReads++
		mReadElided.Inc()
		if r.Hit {
			r.OneRound++
			mReadOneRound.Inc()
		}
		return p, nil
	}
	r.FallbackReads++
	mReadFallback.Inc()

	// Two more physical rounds make p complete before it is returned: p
	// itself, at its own timestamp, into the shared register.
	if err := regular.WriteBack(r.rounder, r.th, types.WriterReg, p, r.acc.Token(), r.known.Digest(types.WriterReg, p)); err != nil {
		return types.Pair{}, fmt.Errorf("core: %w", err)
	}
	return p, nil
}

// EncodePair encodes a pair as a value of the classical transformation's
// per-reader write-back register — "seq|value" for timestamps of writer 0,
// "seq.wid|value" for timestamps carrying a writer id — which nothing reads
// any more; the benchmark module's settle still writes it.
func EncodePair(p types.Pair) types.Value {
	if p.IsBottom() {
		return types.Bottom
	}
	return types.Value(p.TS.String() + "|" + string(p.Val))
}
