package regular

import (
	"math/bits"

	"robustatomic/internal/proto"
	"robustatomic/internal/quorum"
	"robustatomic/internal/types"
)

// StateAcc is the round-1 accumulator: collect (pw, w) state replies from a
// quorum of S−t distinct objects.
type StateAcc struct {
	th      quorum.Thresholds
	Replies map[int]types.Message
}

var _ proto.Accumulator = (*StateAcc)(nil)

// NewStateAcc returns an empty round-1 accumulator.
func NewStateAcc(th quorum.Thresholds) *StateAcc {
	return &StateAcc{th: th, Replies: make(map[int]types.Message, th.S)}
}

// Add implements proto.Accumulator.
func (a *StateAcc) Add(sid int, m types.Message) {
	if m.Kind != types.MsgState {
		return
	}
	if _, dup := a.Replies[sid]; dup {
		return
	}
	a.Replies[sid] = m
}

// Done implements proto.Accumulator.
func (a *StateAcc) Done() bool { return len(a.Replies) >= a.th.Quorum() }

// MaxTS returns the largest timestamp among the collected pw/w states — the
// timestamp-discovery result of a multi-writer write's first round. Byzantine
// objects can inflate it (burning sequence-number space, never safety); the
// keyed Store's read-modify-write path avoids even that by discovering
// through the certified read decision instead.
func (a *StateAcc) MaxTS() types.TS {
	var best types.TS
	for _, m := range a.Replies {
		best = types.MaxTS(best, types.MaxTS(m.PW.TS, m.W.TS))
	}
	return best
}

// srvView is one object's replies across the two query rounds.
type srvView struct {
	has1, has2 bool
	pw1, w1    types.Pair
	pw2, w2    types.Pair
	tok1       types.Token // the token round 1 reported with w1
}

// decider holds the decision procedure's scratch state: every slice the
// procedure needs, grown once and recycled across invocations (same
// discipline as proto.BitAcc replacing the map accumulators on the write
// path). A zero decider is ready to use; it is not safe for concurrent use,
// matching the accumulators that embed it.
type decider struct {
	subsS, subsT int      // thresholds the subset table was built for
	subs         []uint64 // every fault bitmask |F| ≤ t over {1..s}

	pairs   []types.Pair // distinct reported non-⊥ pairs
	masks   []uint64     // reporter bitmask, parallel to pairs
	levels  []types.TS   // distinct reported timestamps, descending
	fmasks  []uint64     // consistent fault assignments
	lambdas []types.TS   // λ(F), parallel to fmasks
	cands   []types.Pair // candidate pairs, descending, ⊥ last

	valTS []types.TS // value-agreement scratch: timestamp → first value
	valV  []types.Value
}

// report records one reported pair, OR-ing the reporter into its bitmask.
// The pair population per decision is at most 4s, so linear probing beats a
// map both in allocations and in constants.
func (d *decider) report(sid int, p types.Pair) {
	if p.TS.IsZero() {
		return
	}
	for i, q := range d.pairs {
		if q == p {
			d.masks[i] |= 1 << uint(sid)
			return
		}
	}
	d.pairs = append(d.pairs, p)
	d.masks = append(d.masks, 1<<uint(sid))
}

// reporterMask returns the reporter bitmask of pair p (0 if unreported).
func (d *decider) reporterMask(p types.Pair) uint64 {
	for i, q := range d.pairs {
		if q == p {
			return d.masks[i]
		}
	}
	return 0
}

// addLevel inserts a distinct timestamp keeping levels descending.
func (d *decider) addLevel(l types.TS) {
	for _, x := range d.levels {
		if x == l {
			return
		}
	}
	d.levels = append(d.levels, l)
	for i := len(d.levels) - 1; i > 0 && d.levels[i-1].Less(d.levels[i]); i-- {
		d.levels[i-1], d.levels[i] = d.levels[i], d.levels[i-1]
	}
}

// addCand inserts a candidate pair keeping cands descending.
func (d *decider) addCand(p types.Pair) {
	d.cands = append(d.cands, p)
	for i := len(d.cands) - 1; i > 0 && d.cands[i-1].Less(d.cands[i]); i-- {
		d.cands[i-1], d.cands[i] = d.cands[i], d.cands[i-1]
	}
}

// allReportsAtLeast reports whether every reply sid gave shows w.ts ≥ ℓ
// (vacuously true for fully silent objects) — the signature of an object
// that acknowledged the WRITE phase of timestamp ℓ before the read began.
func allReportsAtLeast(views []srvView, sid int, l types.TS) bool {
	v := &views[sid]
	if v.has1 && v.w1.TS.Less(l) {
		return false
	}
	if v.has2 && v.w2.TS.Less(l) {
		return false
	}
	return true
}

// decide implements the decision procedure. For every fault assignment F
// (|F| ≤ t) consistent with the two views it computes the highest timestamp
// λ(F) that could be the last write completed before the read began, and it
// returns the maximum reported pair that is genuine under — and dominates
// λ(F) of — every consistent F. Soundness rests on the true fault set never
// being rejected by the consistency checks, so the returned pair is genuine
// and at least as fresh as the last complete write in the actual run.
func (d *decider) decide(th quorum.Thresholds, views []srvView, mw bool) (types.Pair, bool) {
	s, t := th.S, th.T
	if d.subs == nil || d.subsS != s || d.subsT != t {
		d.subsS, d.subsT = s, t
		d.subs = d.subs[:0]
		forEachSubset(s, t, func(f uint64) { d.subs = append(d.subs, f) })
	}

	// Reported pairs, their reporter bitmasks, and the distinct reported
	// timestamps in descending lexicographic order.
	d.pairs, d.masks, d.levels = d.pairs[:0], d.masks[:0], d.levels[:0]
	for sid := 1; sid <= s; sid++ {
		v := &views[sid]
		if v.has1 {
			d.report(sid, v.pw1)
			d.report(sid, v.w1)
		}
		if v.has2 {
			d.report(sid, v.pw2)
			d.report(sid, v.w2)
		}
	}
	for _, p := range d.pairs {
		d.addLevel(p.TS)
	}

	// Enumerate fault assignments F as bitmasks, |F| ≤ t.
	d.fmasks, d.lambdas = d.fmasks[:0], d.lambdas[:0]
	for _, f := range d.subs {
		if !d.consistentF(th, views, f, mw) {
			continue
		}
		// λ(F): the highest reported timestamp whose WRITE phase could have
		// gathered 2t+1 acknowledgements before the read began.
		var lam types.TS
		for _, l := range d.levels {
			cnt := bits.OnesCount64(f)
			for sid := 1; sid <= s; sid++ {
				if f&(1<<uint(sid)) == 0 && allReportsAtLeast(views, sid, l) {
					cnt++
				}
			}
			if cnt >= th.Refute() {
				lam = l
				break
			}
		}
		d.fmasks = append(d.fmasks, f)
		d.lambdas = append(d.lambdas, lam)
	}
	if len(d.fmasks) == 0 {
		// The true fault set is always consistent; an empty set means the
		// views are still too sparse. Keep waiting.
		return types.Pair{}, false
	}

	// Candidates: reported pairs plus ⊥, by descending timestamp (reported
	// pairs are all non-⊥, so ⊥ sorts last unconditionally).
	d.cands = d.cands[:0]
	for _, p := range d.pairs {
		d.addCand(p)
	}
	d.cands = append(d.cands, types.BottomPair)
	for _, c := range d.cands {
		ok := true
		for i, f := range d.fmasks {
			if c.TS.Less(d.lambdas[i]) {
				ok = false
				break
			}
			if !c.TS.IsZero() && d.reporterMask(c)&^f == 0 {
				// Every reporter of c could be Byzantine under F.
				ok = false
				break
			}
		}
		if ok {
			return c, true
		}
	}
	return types.Pair{}, false
}

// checkPair enforces value agreement across one fault assignment's correct
// reports: two correct objects reporting the same timestamp must report the
// same pair. Scratch-backed equivalent of the old per-call map.
func (d *decider) checkPair(p types.Pair) bool {
	if p.TS.IsZero() {
		return true
	}
	for i, ts := range d.valTS {
		if ts == p.TS {
			return d.valV[i] == p.Val
		}
	}
	d.valTS = append(d.valTS, p.TS)
	d.valV = append(d.valV, p.Val)
	return true
}

// consistentF reports whether fault assignment f (bitmask of object ids) is
// consistent with the observed views, i.e. whether some run with exactly
// that Byzantine set could have produced them. The checks must never reject
// the true fault set:
//
//   - monotonicity: correct objects' pw/w timestamps never decrease between
//     rounds;
//   - value agreement: two correct objects reporting the same timestamp
//     report the same pair (a timestamp embeds its writer's identity, and
//     each writer issues one pair per sequence number);
//   - causality (single-writer registers): if a correct object reported
//     sequence number ℓ in round 1, write ℓ−1 completed before its reply,
//     hence before round 2 was sent, so its 2t+1 WRITE acknowledgers — minus
//     those Byzantine under F or not heard from in round 2 — must show
//     w ≥ ℓ−1 in round 2. A multi-writer register's writers discover their
//     sequence number from a quorum that may only have PRE-written ℓ−1, so
//     that inference is unsound there;
//   - prewrite support (multi-writer registers, replacing causality): every
//     pair a correct object reports in w completed its PREWRITE phase
//     (2t+1 acknowledgements) before the object could receive its WRITE —
//     the writer protocol orders the phases — and pw slots are monotone, so
//     for a round-1 w-report of an object correct under F, 2t+1 objects —
//     minus those Byzantine under F or not heard from in round 2 — must
//     show pw (or w) at or above it in round 2. This is what localizes a
//     fabricated high timestamp to its fabricator: no fault set exonerating
//     the liar survives, so λ(F) cannot be inflated beyond what genuine
//     certified pairs can dominate, which the read's termination relies on.
func (d *decider) consistentF(th quorum.Thresholds, views []srvView, f uint64, mw bool) bool {
	s := th.S
	d.valTS, d.valV = d.valTS[:0], d.valV[:0]
	maxR1 := int64(0)  // highest round-1 sequence number (SWMR causality)
	var maxW1 types.TS // highest round-1 w-report (MWMR prewrite support)
	for sid := 1; sid <= s; sid++ {
		if f&(1<<uint(sid)) != 0 {
			continue
		}
		v := &views[sid]
		if v.has1 && v.has2 {
			if v.w2.TS.Less(v.w1.TS) || v.pw2.TS.Less(v.pw1.TS) {
				return false
			}
		}
		if v.has1 {
			if !d.checkPair(v.pw1) || !d.checkPair(v.w1) {
				return false
			}
			if l := max(v.pw1.TS.Seq, v.w1.TS.Seq); l > maxR1 {
				maxR1 = l
			}
			maxW1 = types.MaxTS(maxW1, v.w1.TS)
		}
		if v.has2 {
			if !d.checkPair(v.pw2) || !d.checkPair(v.w2) {
				return false
			}
		}
	}
	if mw {
		// Prewrite support (see above): the highest round-1 w-report among
		// objects correct under F must show 2t+1 objects at pw ≥ it in
		// round 2 (checking the maximum covers every smaller report, since
		// pw slots are monotone in the lexicographic order).
		if !maxW1.IsZero() {
			need := th.Refute()
			cnt := bits.OnesCount64(f)
			for sid := 1; sid <= s; sid++ {
				if f&(1<<uint(sid)) != 0 {
					continue
				}
				v := &views[sid]
				if !v.has2 || !v.pw2.TS.Less(maxW1) || !v.w2.TS.Less(maxW1) {
					cnt++
				}
			}
			if cnt < need {
				return false
			}
		}
		return true
	}
	// Causality: the strongest constraint comes from the highest round-1
	// sequence number ℓ among correct objects; its predecessor ℓ−1 must look
	// complete in round 2. Single-writer registers only (see above).
	if maxR1 >= 2 {
		need := th.Refute()
		cnt := bits.OnesCount64(f)
		for sid := 1; sid <= s; sid++ {
			if f&(1<<uint(sid)) != 0 {
				continue
			}
			v := &views[sid]
			if !v.has2 || v.w2.TS.Seq >= maxR1-1 {
				cnt++
			}
		}
		if cnt < need {
			return false
		}
	}
	return true
}

// ReadAcc is the allocation-free read accumulator: ONE accumulator drives
// the query rounds of one register's regular read, folding (pw, w) state
// replies into a fixed per-object view table — proto.BitAcc's discipline
// applied to the decision procedure. Phase 1 collects the round-1 view (done
// at a quorum of S−t) and looks for a FAST HIT: 2t+1 distinct objects
// reporting the same w pair under the same token decide the read on the
// spot, with no decision round. The hit pair is genuine (t+1 of its reporters
// are correct) and fresh (a write completed before the read left w at or
// above its timestamp at S−2t correct objects, and 2t+1 + S−2t > S puts one
// of them among the reporters); pw slots and dissenting replies play no part
// in either half, and ⊥ everywhere is a hit on ⊥. The token is part of the
// key for the secret-token model's sake ([DMSS09]: one write, one token);
// unauthenticated registers carry token 0 throughout, where the key is the
// w pair alone. A miss costs nothing: phase 1 never waits for a hit, and
// BeginDecide switches to phase 2, whose replies feed the fault-set
// enumeration over both views. Reset recycles the accumulator and its
// decision scratch across reads, so a long-lived reader's steady state
// allocates nothing per read.
type ReadAcc struct {
	th quorum.Thresholds
	// MultiWriter relaxes the decision's consistency checks to the
	// multi-writer discipline (see decider.consistentF): set it, before the
	// decision round runs, on registers written by more than one writer;
	// leave it false on single-writer registers, where the stricter causality
	// filter prunes more Byzantine fault assignments.
	MultiWriter bool
	views       []srvView
	m1, m2      uint64 // reply bitmasks per phase
	deciding    bool   // phase 2 (decision round) in progress
	hit, done   bool   // decided in phase 1 / in phase 2
	choice      types.Pair
	d           decider
}

var _ proto.Accumulator = (*ReadAcc)(nil)

// NewReadAcc returns a reusable read accumulator.
func NewReadAcc(th quorum.Thresholds) *ReadAcc {
	return &ReadAcc{th: th, views: make([]srvView, th.S+1)}
}

// Reset clears the accumulator for the next read, keeping the scratch.
func (a *ReadAcc) Reset() {
	for i := range a.views {
		a.views[i] = srvView{}
	}
	a.m1, a.m2 = 0, 0
	a.deciding, a.hit, a.done = false, false, false
	a.choice = types.Pair{}
}

// BeginDecide freezes the round-1 view and switches the accumulator to the
// decision round, dropping a fast hit the caller chose not to take. Call it
// between the two physical rounds.
func (a *ReadAcc) BeginDecide() { a.deciding, a.hit, a.choice = true, false, types.Pair{} }

// Add implements proto.Accumulator.
func (a *ReadAcc) Add(sid int, m types.Message) {
	if m.Kind != types.MsgState || sid < 1 || sid > a.th.S {
		return
	}
	bit := uint64(1) << uint(sid)
	v := &a.views[sid]
	if !a.deciding {
		if a.m1&bit != 0 {
			return
		}
		a.m1 |= bit
		v.has1, v.pw1, v.w1, v.tok1 = true, m.PW, m.W, m.Token
		if !a.hit && a.agree(v) >= a.th.Refute() {
			a.hit, a.choice = true, v.w1
		}
		return
	}
	if a.done || a.m2&bit != 0 {
		return
	}
	a.m2 |= bit
	v.has2, v.pw2, v.w2 = true, m.PW, m.W
	if bits.OnesCount64(a.m2) < a.th.Refute() {
		return
	}
	if c, ok := a.d.decide(a.th, a.views, a.MultiWriter); ok {
		a.done = true
		a.choice = c
	}
}

// agree counts the round-1 replies carrying v's hit key. Values that reach
// the accumulator through core's known-pair set are one shared string per
// pair, so the comparison is a timestamp and a pointer, not the value's
// bytes.
func (a *ReadAcc) agree(v *srvView) int {
	n := 0
	for sid := 1; sid <= a.th.S; sid++ {
		if u := &a.views[sid]; u.has1 && u.tok1 == v.tok1 && u.w1 == v.w1 {
			n++
		}
	}
	return n
}

// Done implements proto.Accumulator: a quorum in phase 1 (hit or not), a
// decision in phase 2.
func (a *ReadAcc) Done() bool {
	if !a.deciding {
		return bits.OnesCount64(a.m1) >= a.th.Quorum()
	}
	return a.done
}

// Hit reports whether phase 1 decided the read (see ReadAcc).
func (a *ReadAcc) Hit() bool { return a.hit }

// Choice returns the read's pair; valid once Hit, or once the decision round
// is Done.
func (a *ReadAcc) Choice() types.Pair { return a.choice }

// Verdict is the read's proto.Verdict: once it is decided, every object's
// latest w report either is the chosen pair or contradicts it. An undecided
// read (a first round that missed) says nothing.
func (a *ReadAcc) Verdict() (v proto.Verdict) {
	if !a.hit && !a.done {
		return v
	}
	for sid := 1; sid <= a.th.S; sid++ {
		u := &a.views[sid]
		w := u.w1
		if u.has2 {
			w = u.w2
		} else if !u.has1 {
			continue
		}
		if w == a.choice {
			v.Agree |= 1 << uint(sid)
		} else {
			v.W |= 1 << uint(sid)
		}
	}
	return v
}

// MaxTS returns the largest timestamp among the pw/w states of the query
// rounds' replies. Like StateAcc.MaxTS the reports are uncertified — a
// Byzantine object can inflate the result — so callers resuming a sequence
// number from it must bound the lead against a certified anchor (see
// core.ResumeSeq).
func (a *ReadAcc) MaxTS() types.TS {
	var best types.TS
	for sid := 1; sid <= a.th.S; sid++ {
		v := &a.views[sid]
		if v.has1 {
			best = types.MaxTS(best, types.MaxTS(v.pw1.TS, v.w1.TS))
		}
		if v.has2 {
			best = types.MaxTS(best, types.MaxTS(v.pw2.TS, v.w2.TS))
		}
	}
	return best
}

// WSupport returns how many distinct objects' WRITE-slot reports, in either
// query round, carry a timestamp at or above ts — the completeness evidence
// behind the adaptive read's write-back elision (see core.Reader.ReadPair):
// a quorum of S−t such reports proves at least S−2t ≥ t+1 correct objects
// durably hold w ≥ ts, which forces every later read to return a pair at or
// above ts without this read re-asserting it.
func (a *ReadAcc) WSupport(ts types.TS) int {
	n := 0
	for sid := 1; sid <= a.th.S; sid++ {
		v := &a.views[sid]
		if (v.has1 && !v.w1.TS.Less(ts)) || (v.has2 && !v.w2.TS.Less(ts)) {
			n++
		}
	}
	return n
}

// forEachSubset invokes fn for every subset of {1..n} of size ≤ k, encoded
// as a bitmask with bit i set for element i.
func forEachSubset(n, k int, fn func(mask uint64)) {
	if n > 62 {
		panic("regular: object count too large for subset enumeration")
	}
	var rec func(start int, mask uint64, left int)
	rec = func(start int, mask uint64, left int) {
		fn(mask)
		if left == 0 {
			return
		}
		for i := start; i <= n; i++ {
			rec(i+1, mask|1<<uint(i), left-1)
		}
	}
	rec(1, 0, k)
}
