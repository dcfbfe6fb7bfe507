// Package core implements the paper's upper bound (Section 5) promoted to
// multi-writer: a robust multi-writer multi-reader ATOMIC register with
// 3-round writes and 4-round reads, built from one MWMR regular register
// shared by all writers plus one write-back register per reader, hosted on
// the same S = 3t+1 Byzantine-prone storage objects — the classical
// regular → atomic transformation of [4, 20] referenced in the paper's
// footnote 6, with multi-writer ABD-style (Seq, WriterID) timestamps.
//
// Writes are ADAPTIVE (see fastpath.go): the writer optimistically proposes
// the successor of its own cached timestamp directly in the PREWRITE round,
// whose acknowledgements piggyback each object's prior timestamps; a quorum
// reporting nothing at or above the proposal certifies it, and the WRITE
// round completes the operation — 2 rounds, the paper's SWMR optimum,
// whenever no foreign writer interfered. Interference falls back to
// discovery (the failed prewrite's reports double as the discovery result:
// 3 rounds, the unconditional cost before the fast path) or, against
// Byzantine-inflated reports, to the certified read (5 rounds worst case).
// The lexicographic (Seq, WriterID) order totally orders even timestamps
// picked concurrently.
//
// Reads are ADAPTIVE too, twice over. The regular reads of all R+1
// registers are multiplexed onto physical rounds (one sub-request per
// register to every object). (1) A register whose FIRST query round shows
// 2t+1 objects agreeing on one w pair is decided on the spot (the fast hit,
// regular.ReadAcc: the pair is genuine and no newer write completed); the
// second query round runs only for the registers that missed, and not at
// all when none did. (2) The write-back into the reader's own register (two
// more rounds: PREWRITE, WRITE) is ELIDED whenever the query rounds
// themselves certify the chosen pair as completely written: a full quorum
// of S−t distinct objects w-reported the chosen timestamp (or higher) on
// the SHARED register — which a shared-register hit on the chosen pair
// exhibits by construction. So a stable register reads in 1 round, a
// register whose objects disagree but whose decision round finds the
// evidence in 2; only reads concurrent with a write, or reads whose
// evidence a Byzantine minority withheld, pay the full 4 rounds the paper's
// Prop. 1 proves necessary in the worst case — the lower bound binds
// exactly the executions that still take 4. One flow serves both failure
// models: the secret-token reader is this one with a token source, and the
// hit key includes the reply's token (0 throughout the plain model).
//
// Elision safety: the condition exhibits ≥ S−t distinct w-reporters at or
// above the chosen timestamp ts on the shared register, of which at most t
// lie, so at least S−2t ≥ t+1 CORRECT objects durably hold w ≥ ts (w slots
// are monotone at correct objects). Any later read then returns a pair ≥ ts
// without our help. A later DECISION: under the true fault set F*, the
// level ℓ* = min over those t+1 holders of their smallest w-report
// satisfies ℓ* ≥ ts and counts |F*| + (t+1) ≥ 2t+1 supporters, so
// λ(F*) ≥ ts and the decision's choice dominates it. A later HIT: its 2t+1
// agreeing objects and those S−2t holders cannot be disjoint, and the
// holder among them reports w ≥ ts. The check runs against the shared
// register only — write-back registers hold ENCODED inner pairs whose inner
// timestamps are not monotone along the outer sequence across reader
// lifetimes, so quorum w-support there certifies nothing about ts.
//
// Atomicity argument (Section 2.2 properties, multi-writer form): (1) values
// travel only from writers through correct objects or genuinely-certified
// write-backs, so reads return written values; (2) a read succeeding a
// complete write at timestamp ts reads the shared register regularly and
// obtains a pair ≥ ts (the regular read's decision dominates every complete
// write); (3) pairs cannot be observed before some writer issues them;
// (4) a read rd2 succeeding rd1 sees a pair at least rd1's result: either
// rd1 completed its write-back before returning and rd2 reads that register
// regularly, or rd1 elided — in which case the elision evidence above
// already forces rd2's shared-register read, hit or decided, to dominate
// rd1's result — so there is no new/old inversion either way (DESIGN.md,
// "Adaptive reads", has the three lemmas). Writes are ordered by their
// timestamps, which respect real time: a write's discovery round intersects
// every earlier complete write's WRITE quorum in a correct object, so its
// timestamp strictly dominates.
package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

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
	pw    *regular.Writer
	known *proto.Known

	// FastWrites and FallbackWrites count Write calls that certified on the
	// optimistic 2-round path vs. fell back (instrumentation; the round
	// hook gives finer grain).
	FastWrites     int
	FallbackWrites int
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
	w := &Writer{rounder: r, th: th, wid: wid, pw: pw}
	w.UseKnown(proto.NewKnown(th))
	return w
}

// UseKnown makes the writer record its writes in, and condition its
// certified reads on, k instead of the handle's private set — the keyed
// Store shares one set per shard between its committer and its reader. A pair
// is recorded when its timestamp is issued, before the PREWRITE puts it into
// circulation (regular.Writer.UseKnown).
func (w *Writer) UseKnown(k *proto.Known) {
	w.known = k
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

// CertifiedNext runs a certified regular read of the shared register (one
// round on a fast hit, two with the full decision procedure — see
// regular.ReadAcc) and returns the current pair plus the successor timestamp
// for writer wid. Unlike a raw quorum maximum, the read only returns genuine
// pairs, so not even the timestamp can be Byzantine-inflated. The rounds are conditioned on k (nil reads
// unconditioned): a writer whose last pair is still the register's current
// one — the rebase that finds nothing to rebase onto — moves timestamps, not
// values.
func CertifiedNext(r proto.Rounder, th quorum.Thresholds, wid int64, own types.TS, k *proto.Known) (types.Pair, types.TS, error) {
	acc := regular.NewReadAcc(th)
	acc.MultiWriter = true
	cur, err := regular.ReadPairOn(r, types.WriterReg, acc, k)
	if err != nil {
		return types.Pair{}, types.TS{}, fmt.Errorf("core: certified discovery: %w", err)
	}
	k.Seed(types.WriterReg, cur)
	return cur, types.MaxTS(cur.TS, own).Next(wid), nil
}

// Modify performs a certified read-modify-write: a regular read of the
// shared register (1 round on a fast hit, else 2 with the decision
// procedure — either way not even the timestamp can be Byzantine-inflated,
// unlike the optimistic validation's), then fn maps the current pair to the
// value to install, which the regular write's two rounds store at the
// successor timestamp. 3 or 4 rounds total; the keyed Store layer rebases
// onto foreign tables through Modify when the flush fast path detects
// interference. A fn returning SkipWrite elides the write phases and yields
// the (certified) current pair unchanged. The successor is based on the
// writer's IssuedTS, so a pair abandoned by an earlier failed attempt is
// never re-issued with a different value. The certified read is conditioned
// on the known-pair set (see CertifiedNext), and the installed pair recorded
// in it.
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
	cur, next, err := CertifiedNext(w.rounder, w.th, w.wid, w.pw.IssuedTS(), w.known)
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
	if err := w.pw.WriteDerived(p, from, 0); err != nil {
		return types.Pair{}, err
	}
	return p, nil
}

// LastTS returns the timestamp of the last completed write.
func (w *Writer) LastTS() types.TS { return w.pw.LastTS() }

// Read-path counters: which of its bets the adaptive read won. Every read
// ends in exactly one of the first three (1 round; 2 rounds; write-back
// paid — 4 rounds, or 3 when every register hit), so their mix IS the round
// mix; the miss counter says which register sent a read to the decision
// round (`storctl stats` derives the ratios).
var (
	mReadOneRound = obs.Default.Counter("core_read_one_round_total")
	mReadElided   = obs.Default.Counter("core_read_elided_total")
	mReadFallback = obs.Default.Counter("core_read_fallback_total")
	mMissShared   = obs.Default.Counter(`core_read_hit_miss_total{reg="shared"}`)
	mMissWB       = obs.Default.Counter(`core_read_hit_miss_total{reg="writeback"}`)
)

// Reader is one of the R readers of the atomic register — in either model:
// the secret-token reader is this flow with a token source (NextToken).
type Reader struct {
	rounder proto.Rounder
	th      quorum.Thresholds
	idx     int // this reader's index, 1-based
	readers int // R
	seq     int64
	// discover marks a handle that has yet to learn its write-back sequence
	// number from the objects (NewReader): its first read takes no fast hit.
	discover bool

	// NextToken, when set, attaches a fresh secret token to each write-back
	// ([DMSS09] model, see regular.Writer.NextToken).
	NextToken func() types.Token

	// Reusable round state, built on the first read and recycled after: one
	// read accumulator per register, the register-addressed rounds fanning
	// out to them (part i is register regs[i]; slow lists the registers that
	// missed), conditioned on the known-pair set — steady-state reads
	// allocate nothing here.
	regs   []types.RegID
	accs   []*regular.ReadAcc
	mux    proto.RegAcc
	known  *proto.Known
	slow   []int
	back   types.Pair // the last write-back (see Choice)
	noteFn func() string

	// Hit reports whether the last ReadPair decided every register on its
	// first query round (no decision round); Elided whether it skipped the
	// write-back (the query rounds certified the chosen pair as completely
	// written). Both: a one-round read.
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
// A fresh handle discovers the sequence number its write-back register is at
// during its first read (every read queries its own register anyway), so a
// new process reattaching with an identity earlier lifetimes used is safe;
// CONCURRENT use of one reader identity remains forbidden.
func NewReader(r proto.Rounder, th quorum.Thresholds, idx, readers int) *Reader {
	rd := NewReaderAt(r, th, idx, readers, 0)
	rd.discover = true
	return rd
}

// NewReaderAt returns a reader resuming its write-back register from a known
// internal sequence number (nothing left to discover: its first read may
// already take the fast hit).
func NewReaderAt(r proto.Rounder, th quorum.Thresholds, idx, readers int, seq int64) *Reader {
	if idx < 1 || idx > readers {
		panic(fmt.Sprintf("core: reader index %d out of 1..%d", idx, readers))
	}
	rd := &Reader{rounder: r, th: th, idx: idx, readers: readers, seq: seq}
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

// Choice returns the pair the last ReadPair left register i of the instance
// at, as far as it knows — 0 the shared register, i reader i's write-back
// register (its outer pair, the inner one still encoded): what the query
// rounds settled on, or, for this reader's own register, the write-back that
// followed them. Repair transfers these.
func (r *Reader) Choice(i int) types.Pair {
	if i == r.idx && !r.Elided {
		return r.back
	}
	return r.accs[i].Choice()
}

// Seq returns the reader's current write-back sequence number.
func (r *Reader) Seq() int64 { return r.seq }

// ResumeSeq returns the write-back sequence number a reader handle should
// resume from after reading its own register: prev (the handle's count so
// far), advanced to the raw maximum sequence number the query rounds
// reported. The raw maximum — not the certified choice — is what must never
// be re-issued: a crashed predecessor's prewrite may sit on a single object,
// invisible to certification, and re-issuing its sequence number with a
// different value would leave correct objects permanently disagreeing on one
// timestamp's value (equal timestamps never overwrite), each such pair
// spending a unit of the read decision's fault budget. But raw reports are
// Byzantine-inflatable, so — exactly like the writer's discovery
// (maxDiscoveryLead) — a raw lead past the certified anchor too large to be
// honest history is ignored rather than allowed to burn the sequence space.
func ResumeSeq(prev int64, cert, raw types.TS) int64 {
	seq := prev
	if cert.Seq > seq {
		seq = cert.Seq
	}
	if raw.Seq > seq && raw.Seq-cert.Seq <= maxDiscoveryLead {
		seq = raw.Seq
	}
	return seq
}

// Read performs the adaptive atomic read: 1 round when every register's
// first-round replies hit and certify the result as completely written, 2
// when only the decision round could tell, 4 otherwise.
func (r *Reader) Read() (types.Value, error) {
	p, err := r.ReadPair()
	return p.Val, err
}

// init builds the reader's reusable round state: one accumulator per
// register, each a part of the register-addressed rounds — every object
// receives one READ per register and answers with one reply per register, so
// the R+1 regular reads advance in lockstep and cost a single physical
// round-trip (proto.RegAcc).
func (r *Reader) init() {
	if r.accs != nil {
		return
	}
	r.regs = make([]types.RegID, r.readers+1)
	r.accs = make([]*regular.ReadAcc, len(r.regs))
	r.slow = make([]int, 0, len(r.regs))
	r.noteFn = func() string {
		n := 0
		for _, a := range r.accs {
			if a.Hit() {
				n++
			}
		}
		return fmt.Sprintf("hit %d/%d", n, len(r.accs))
	}
	for i := range r.regs {
		// The writers' register, then every reader's write-back register.
		r.regs[i] = types.WriterReg
		if i > 0 {
			r.regs[i] = types.ReaderReg(i)
		}
		// Every register runs the relaxed multi-writer decision: the shared
		// register (index 0) genuinely has many writers, and a write-back
		// register's owner resumes its sequence number by discovery (see
		// ReadPair), so its write at ℓ may follow a crashed predecessor's
		// ℓ−1 that never completed — the exact premise under which the
		// stricter SWMR causality filter would wrongly reject the true
		// fault set (see regular.ReadAcc.MultiWriter).
		r.accs[i] = regular.NewReadAcc(r.th)
		r.accs[i].MultiWriter = true
		r.mux.Part(r.regs[i], types.Message{Kind: types.MsgRead1}, r.accs[i])
	}
}

// ReadPair performs the adaptive atomic read, returning the chosen
// timestamp-value pair.
func (r *Reader) ReadPair() (types.Pair, error) {
	r.init()
	for _, a := range r.accs {
		a.Reset()
	}

	// Physical round 1: round 1 of every register's regular read. A traced
	// round notes how many registers it decided outright.
	spec := r.mux.Spec("AREAD1", nil)
	spec.Note = r.noteFn
	if err := r.rounder.Round(spec); err != nil {
		return types.Pair{}, fmt.Errorf("core: read round 1: %w", err)
	}

	// Physical round 2, for the registers whose round 1 missed the fast hit
	// (regular.ReadAcc) only: the decision round over their frozen round-1
	// views. A handle still discovering its write-back sequence number takes
	// no hit, so ResumeSeq below sees both rounds' raw maxima exactly once.
	r.slow = r.slow[:0]
	for i, a := range r.accs {
		if a.Hit() && !r.discover {
			continue
		}
		a.BeginDecide()
		r.slow = append(r.slow, i)
		if !r.discover {
			if i == 0 {
				mMissShared.Inc()
			} else {
				mMissWB.Inc()
			}
		}
	}
	r.discover = false
	if r.Hit = len(r.slow) == 0; !r.Hit {
		only := r.slow
		if len(only) == len(r.accs) {
			only = nil // every register: the first round's request serves again
		}
		if err := r.rounder.Round(r.mux.Spec("AREAD2", only)); err != nil {
			return types.Pair{}, fmt.Errorf("core: read round 2: %w", err)
		}
	}

	// Resume the write-back sequence number from the views just collected:
	// regs[r.idx] is this reader's own register, so the read's query rounds
	// double as the discovery round a fresh handle needs. A handle
	// that restarted its count at zero would re-issue sequence numbers an
	// earlier lifetime of this identity already used, carrying this era's
	// (different) value; objects keep whichever write they saw first (equal
	// timestamps never overwrite), so correct objects end up durably
	// disagreeing on one timestamp's value — each such pair burns a unit of
	// the read decision's fault budget, and enough of them starve every
	// later read of this register ("all replies in, accumulator
	// unsatisfied"). Resuming must happen on BOTH the elided and the
	// fallback path: an elided read still observed the register, and the
	// next fallback write-back must not re-issue what it saw.
	r.seq = ResumeSeq(r.seq, r.accs[r.idx].Choice().TS, r.accs[r.idx].MaxTS())

	// What was just decided is what the next read will most likely be
	// answered with: offer it, so the objects need not send it again.
	for i, a := range r.accs {
		r.mux.Seed(r.regs[i], a.Choice())
	}

	// The read's result is the maximum pair across the writer's register
	// and every reader's write-back register.
	best := r.accs[0].Choice() // writer's register holds pairs directly
	for i := 1; i < len(r.regs); i++ {
		p, err := DecodePair(r.accs[i].Choice().Val)
		if err != nil {
			return types.Pair{}, fmt.Errorf("core: write-back register %v: %w", r.regs[i], err)
		}
		best = types.MaxPair(best, p)
	}

	// Write-back elision: when a full quorum of S−t distinct objects
	// w-reported the chosen timestamp (or higher) on the SHARED register,
	// the chosen pair is already completely written — at least t+1 correct
	// objects durably hold it, which forces every later read, hit or
	// decided, to return a pair at or above it (see the package
	// documentation's safety argument) — so the 2-round write-back
	// re-asserting it is pure cost. A shared-register hit on best IS that
	// evidence; a write-back register's hit only fed the maximum. The check
	// runs against the shared register only: whatever register `best`
	// surfaced from, its value originates in shared-register pairs
	// (write-back registers hold encoded copies), and only the shared
	// register's w slots are monotone in best's timestamp order. Byzantine
	// objects cannot fake the condition (t forged reports < S−t) and can at
	// worst withhold it, costing rounds, never safety.
	if r.Elided = r.accs[0].WSupport(best.TS) >= r.th.Quorum(); r.Elided {
		r.FastReads++
		mReadElided.Inc()
		if r.Hit {
			r.OneRound++
			mReadOneRound.Inc()
		}
		return best, nil
	}
	r.FallbackReads++
	mReadFallback.Inc()

	// Two more physical rounds: write the result back into this reader's own
	// register before returning. Write-back registers are single-writer
	// (the reader owns its own), so their timestamps keep WID 0.
	if r.seq+1 <= 0 {
		return types.Pair{}, fmt.Errorf("core: write-back register sequence space exhausted")
	}
	wb := regular.NewWriterAt(r.rounder, r.th, types.ReaderReg(r.idx), 0, types.At(r.seq))
	wb.NextToken = r.NextToken
	wb.UseKnown(r.known) // the next read offers the pair, so the objects need not send it back
	back := types.Pair{TS: types.At(r.seq + 1), Val: EncodePair(best)}
	if err := wb.WritePair(back); err != nil {
		return types.Pair{}, fmt.Errorf("core: write-back: %w", err)
	}
	r.seq, r.back = r.seq+1, back
	return best, nil
}

// EncodePair encodes a pair as a register value for write-back registers:
// "seq|value" for timestamps of writer 0 and "seq.wid|value" for timestamps
// carrying a writer id.
func EncodePair(p types.Pair) types.Value {
	if p.IsBottom() {
		return types.Bottom
	}
	return types.Value(p.TS.String() + "|" + string(p.Val))
}

// DecodePair decodes a write-back register value in either EncodePair form.
// The empty value decodes to the initial pair.
func DecodePair(v types.Value) (types.Pair, error) {
	if v.IsBottom() {
		return types.BottomPair, nil
	}
	i := strings.IndexByte(string(v), '|')
	if i < 0 {
		return types.Pair{}, fmt.Errorf("core: malformed write-back payload %q", v)
	}
	head, rest := string(v)[:i], string(v)[i+1:]
	seqStr, widStr, hasWID := strings.Cut(head, ".")
	seq, err := strconv.ParseInt(seqStr, 10, 64)
	if err != nil || seq <= 0 {
		return types.Pair{}, fmt.Errorf("core: malformed write-back timestamp in %q", v)
	}
	var wid int64
	if hasWID {
		if wid, err = strconv.ParseInt(widStr, 10, 64); err != nil || wid == 0 {
			return types.Pair{}, fmt.Errorf("core: malformed write-back writer id in %q", v)
		}
	}
	return types.Pair{TS: types.TS{Seq: seq, WID: wid}, Val: types.Value(rest)}, nil
}
