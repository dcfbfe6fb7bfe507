package regular

import (
	"testing"

	"robustatomic/internal/quorum"
	"robustatomic/internal/types"
)

// view builds a per-object round view from (sid, pw, w) triples.
func view(entries ...[3]interface{}) map[int]types.Message {
	out := make(map[int]types.Message, len(entries))
	for _, e := range entries {
		out[e[0].(int)] = types.Message{Kind: types.MsgState, PW: e[1].(types.Pair), W: e[2].(types.Pair)}
	}
	return out
}

// decide runs the decision procedure over map-shaped views (the unit
// tests' natural input). Replies from object ids outside 1..S are dropped,
// as ReadAcc.Add drops them.
func decide(th quorum.Thresholds, r1, r2 map[int]types.Message, mw bool) (types.Pair, bool) {
	views := make([]srvView, th.S+1)
	for sid, m := range r1 {
		if sid >= 1 && sid <= th.S {
			views[sid].has1, views[sid].pw1, views[sid].w1 = true, m.PW, m.W
		}
	}
	for sid, m := range r2 {
		if sid >= 1 && sid <= th.S {
			views[sid].has2, views[sid].pw2, views[sid].w2 = true, m.PW, m.W
		}
	}
	var d decider
	return d.decide(th, views, mw)
}

// decideAccOver returns a read accumulator in its decision round over the
// frozen round-1 view r1.
func decideAccOver(th quorum.Thresholds, r1 map[int]types.Message) *ReadAcc {
	acc := NewReadAcc(th)
	for sid, m := range r1 {
		acc.Add(sid, m)
	}
	acc.BeginDecide()
	return acc
}

func p(ts int64, v string) types.Pair { return types.Pair{TS: types.At(ts), Val: types.Value(v)} }

var bot = types.BottomPair

func thr4(t *testing.T) quorum.Thresholds {
	t.Helper()
	th, err := quorum.NewThresholds(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return th
}

func TestDecideAllBottom(t *testing.T) {
	th := thr4(t)
	r := view([3]interface{}{1, bot, bot}, [3]interface{}{2, bot, bot}, [3]interface{}{3, bot, bot})
	c, ok := decide(th, r, r, false)
	if !ok || !c.IsBottom() {
		t.Fatalf("decide = %v, %v", c, ok)
	}
}

func TestDecideCompleteWriteVisible(t *testing.T) {
	th := thr4(t)
	// Write (1,a) completed on a full quorum; one object lags.
	r := view(
		[3]interface{}{1, p(1, "a"), p(1, "a")},
		[3]interface{}{2, p(1, "a"), p(1, "a")},
		[3]interface{}{3, p(1, "a"), p(1, "a")},
		[3]interface{}{4, bot, bot},
	)
	c, ok := decide(th, r, r, false)
	if !ok || c != p(1, "a") {
		t.Fatalf("decide = %v, %v", c, ok)
	}
}

func TestDecideGarbageNeverReturned(t *testing.T) {
	th := thr4(t)
	// One Byzantine object reports a fabricated huge pair; it can never be
	// genuine under the fault set containing its sole reporter.
	r := view(
		[3]interface{}{1, p(99, "evil"), p(99, "evil")},
		[3]interface{}{2, p(1, "a"), p(1, "a")},
		[3]interface{}{3, p(1, "a"), p(1, "a")},
		[3]interface{}{4, p(1, "a"), p(1, "a")},
	)
	c, ok := decide(th, r, r, false)
	if !ok || c != p(1, "a") {
		t.Fatalf("decide = %v, %v (garbage must lose)", c, ok)
	}
}

func TestDecideUndecidableSplitView(t *testing.T) {
	// The seed-7 stuck view from the model checker (t=1): level 1 carried
	// by a single reporter while a fabricated level sits above — under
	// F={s4} the pair (1,v1) is not genuine, and under F={s1} nothing
	// above ⊥ is required... but with s1 claiming (3,evil) in ROUND 1 the
	// causality constraint needs 2t+1 round-2 objects at w ≥ 2 for any F
	// excluding s1, which fails — so F∌s1 is inconsistent and ⊥ decides.
	th := thr4(t)
	r1 := view(
		[3]interface{}{1, p(3, "evil"), p(3, "evil")},
		[3]interface{}{2, bot, bot},
		[3]interface{}{3, bot, bot},
		[3]interface{}{4, p(1, "v1"), p(1, "v1")},
	)
	c, ok := decide(th, r1, r1, false)
	if !ok {
		t.Fatal("full split view undecided")
	}
	// Consistency analysis: any F excluding s1 makes its round-1 level-3
	// report genuine, implying write 2 completed before round 2 — but at
	// most s1 itself shows w ≥ 2 in round 2, so only F = {s1} (and
	// subsets... F=∅ is inconsistent too) survives; under F = {s1},
	// (1,v1) is genuine via s4 and λ = 1 — (1,v1) is the sound choice.
	if c != p(1, "v1") {
		t.Fatalf("decide = %v, want (1,v1)", c)
	}
}

func TestDecideCausalityExcludesLateFabrication(t *testing.T) {
	// Same split view, but the level-3 evidence appears only in ROUND 2:
	// now the run where s4 fabricated (1,v1) and the writer advanced late
	// is consistent (F={s4}), so (1,v1) must NOT be returned; and under
	// F={s2} or F={s3} the write(1) could never have completed before the
	// read (its acknowledgers would show w ≥ 1 in both rounds) — ⊥ is the
	// only safe and correct decision.
	th := thr4(t)
	r1 := view(
		[3]interface{}{1, bot, bot},
		[3]interface{}{2, bot, bot},
		[3]interface{}{3, bot, bot},
		[3]interface{}{4, p(1, "v1"), p(1, "v1")},
	)
	r2 := view(
		[3]interface{}{1, p(3, "evil"), p(3, "evil")},
		[3]interface{}{2, bot, bot},
		[3]interface{}{3, bot, bot},
		[3]interface{}{4, p(1, "v1"), p(1, "v1")},
	)
	c, ok := decide(th, r1, r2, false)
	if !ok {
		t.Fatal("undecided")
	}
	if c != bot {
		t.Fatalf("decide = %v, want ⊥ (neither (1,v1) nor (3,evil) is provably genuine)", c)
	}
}

func TestDecideInsufficientReplies(t *testing.T) {
	th := thr4(t)
	r := view([3]interface{}{1, bot, bot}, [3]interface{}{2, bot, bot})
	// Fewer than 2t+1 round-2 replies never decide (ReadAcc gates on it,
	// but decide itself must also stay conservative: silent=2 keeps every
	// level possible).
	acc := decideAccOver(th, r)
	acc.Add(1, types.Message{Kind: types.MsgState, PW: bot, W: bot})
	acc.Add(2, types.Message{Kind: types.MsgState, PW: bot, W: bot})
	if acc.Done() {
		t.Fatal("decided below 2t+1 round-2 replies")
	}
}

func TestDecideMonotoneNonReporterRejected(t *testing.T) {
	// An object whose round-2 state regressed below round 1 incriminates
	// itself: every consistent F contains it, so its lone report cannot
	// certify anything.
	th := thr4(t)
	r1 := view(
		[3]interface{}{1, p(2, "x"), p(2, "x")},
		[3]interface{}{2, p(1, "a"), p(1, "a")},
		[3]interface{}{3, p(1, "a"), p(1, "a")},
		[3]interface{}{4, p(1, "a"), p(1, "a")},
	)
	r2 := view(
		[3]interface{}{1, bot, bot}, // regression: Byzantine for sure
		[3]interface{}{2, p(1, "a"), p(1, "a")},
		[3]interface{}{3, p(1, "a"), p(1, "a")},
		[3]interface{}{4, p(1, "a"), p(1, "a")},
	)
	c, ok := decide(th, r1, r2, false)
	if !ok || c != p(1, "a") {
		t.Fatalf("decide = %v, %v", c, ok)
	}
}

func TestDecideValueConflictIncriminates(t *testing.T) {
	// Two objects reporting different values at the same timestamp cannot
	// both be correct; fault sets excluding both are inconsistent and the
	// decision still goes through via the certified majority.
	th, err := quorum.NewThresholds(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := view(
		[3]interface{}{1, p(1, "fake"), p(1, "fake")},
		[3]interface{}{2, p(1, "real"), p(1, "real")},
		[3]interface{}{3, p(1, "real"), p(1, "real")},
		[3]interface{}{4, p(1, "real"), p(1, "real")},
		[3]interface{}{5, p(1, "real"), p(1, "real")},
		[3]interface{}{6, p(1, "real"), p(1, "real")},
		[3]interface{}{7, p(1, "fake"), p(1, "fake")},
	)
	c, ok := decide(th, r, r, false)
	if !ok || c != p(1, "real") {
		t.Fatalf("decide = %v, %v", c, ok)
	}
}

func TestDecideDisjointConflictsStarve(t *testing.T) {
	// The captured AREAD2 flake, reduced to its decision-procedure core: a
	// reader identity that restarts its write-back sequence count re-issues
	// timestamps with a different value, and objects keep whichever write
	// they saw first — so correct objects end up durably disagreeing on a
	// timestamp. One such conflict pair spends one unit of the fault budget;
	// TWO DISJOINT pairs on the same register exceed t=1, every |F| ≤ t is
	// inconsistent, and the accumulator never fires even with all S replies
	// in ("all replies in, accumulator unsatisfied").
	th := thr4(t)
	r := view(
		[3]interface{}{1, p(1, "a"), p(1, "a")},
		[3]interface{}{2, p(1, "b"), p(1, "b")},
		[3]interface{}{3, p(2, "c"), p(2, "c")},
		[3]interface{}{4, p(2, "d"), p(2, "d")},
	)
	for _, mw := range []bool{false, true} {
		if _, ok := decide(th, r, r, mw); ok {
			t.Fatalf("mw=%v: decided over two disjoint equal-TS value conflicts", mw)
		}
		acc := decideAccOver(th, r)
		acc.MultiWriter = mw
		for sid, m := range r {
			acc.Add(sid, m)
		}
		if acc.Done() {
			t.Fatalf("mw=%v: accumulator satisfied despite starved decision", mw)
		}
	}

	// Contrast: a SINGLE conflict pair stays within the budget — the fault
	// set containing one conflicting object is consistent and the certified
	// majority still decides.
	single := view(
		[3]interface{}{1, p(1, "a"), p(1, "a")},
		[3]interface{}{2, p(1, "b"), p(1, "b")},
		[3]interface{}{3, p(1, "a"), p(1, "a")},
		[3]interface{}{4, p(1, "a"), p(1, "a")},
	)
	c, ok := decide(th, single, single, false)
	if !ok || c != p(1, "a") {
		t.Fatalf("single conflict: decide = %v, %v, want (1,a)", c, ok)
	}
}

func TestDecideAccMaxTS(t *testing.T) {
	// MaxTS spans the pw/w states of BOTH rounds: a crashed predecessor's
	// prewrite may be visible on one object in one round only, and resuming
	// below it would re-issue its sequence number.
	th := thr4(t)
	r1 := view(
		[3]interface{}{1, p(5, "x"), p(3, "x")},
		[3]interface{}{2, p(1, "a"), p(1, "a")},
	)
	acc := decideAccOver(th, r1)
	acc.Add(3, types.Message{Kind: types.MsgState, PW: p(7, "y"), W: p(2, "y")})
	if got := acc.MaxTS(); got != types.At(7) {
		t.Fatalf("MaxTS = %v, want %v", got, types.At(7))
	}
}

func TestForEachSubsetCounts(t *testing.T) {
	count := 0
	forEachSubset(4, 2, func(uint64) { count++ })
	// C(4,0)+C(4,1)+C(4,2) = 1+4+6 = 11.
	if count != 11 {
		t.Fatalf("subsets = %d, want 11", count)
	}
	defer func() {
		if recover() == nil {
			t.Error("oversized enumeration accepted")
		}
	}()
	forEachSubset(63, 1, func(uint64) {})
}
