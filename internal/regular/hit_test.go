package regular

import (
	"flag"
	"fmt"
	"testing"

	"robustatomic/internal/quorum"
	"robustatomic/internal/types"
)

func state(pw, w types.Pair) types.Message {
	return types.Message{Kind: types.MsgState, PW: pw, W: w}
}

// TestFastHitRule pins the phase-1 rule on hand-built views: 2t+1 distinct
// objects reporting the same w pair (timestamp AND value) under the same
// token decide the read; nothing else about the replies matters.
func TestFastHitRule(t *testing.T) {
	a, b := p(2, "a"), p(2, "b")
	old := p(1, "o")
	cases := []struct {
		name    string
		s, t    int
		replies []types.Message // object i+1's reply; Kind 0 = silent
		hit     bool
		want    types.Pair
	}{
		{"S=4 unanimous", 4, 1, []types.Message{state(a, a), state(a, a), state(a, a)}, true, a},
		{"S=4 2t+1 agree, one dissents", 4, 1, []types.Message{state(a, a), state(p(9, "x"), p(9, "x")), state(a, a), state(a, a)}, true, a},
		{"S=4 only 2t agree", 4, 1, []types.Message{state(a, a), state(a, a), state(a, old)}, false, types.Pair{}},
		{"S=4 pw ahead of w: hit on w", 4, 1, []types.Message{state(a, old), state(a, old), state(old, old)}, true, old},
		{"S=4 equal timestamp, different value", 4, 1, []types.Message{state(a, a), state(a, a), state(b, b)}, false, types.Pair{}},
		{"S=4 all ⊥", 4, 1, []types.Message{state(bot, bot), state(bot, bot), state(bot, bot)}, true, bot},
		{"S=4 ⊥ in w under a prewrite", 4, 1, []types.Message{state(a, bot), state(bot, bot), state(a, bot)}, true, bot},
		{"S=4 token differs", 4, 1, []types.Message{state(a, a), state(a, a), {Kind: types.MsgState, PW: a, W: a, Token: 7}}, false, types.Pair{}},
		{"S=7 unanimous quorum", 7, 2, []types.Message{state(a, a), state(a, a), state(a, a), state(a, a), state(a, a)}, true, a},
		{"S=7 2t+1 agree among dissenters", 7, 2, []types.Message{state(b, b), state(a, a), state(a, a), state(old, old), state(a, a), state(a, a), state(a, a)}, true, a},
		{"S=7 only 2t agree", 7, 2, []types.Message{state(a, a), state(a, a), state(a, a), state(a, a), state(a, old), state(b, b), state(old, old)}, false, types.Pair{}},
		{"S=7 pw ahead of w: hit on w", 7, 2, []types.Message{state(a, old), state(a, old), state(b, old), state(old, old), state(a, old)}, true, old},
		{"S=7 equal timestamp, different value", 7, 2, []types.Message{state(a, a), state(a, a), state(a, a), state(a, a), state(b, b), state(b, b), state(b, b)}, false, types.Pair{}},
		{"S=7 all ⊥", 7, 2, []types.Message{state(bot, bot), state(bot, bot), state(bot, bot), state(bot, bot), state(bot, bot)}, true, bot},
	}
	for _, c := range cases {
		th, err := quorum.NewThresholds(c.s, c.t)
		if err != nil {
			t.Fatal(err)
		}
		acc := NewReadAcc(th)
		for i, m := range c.replies {
			acc.Add(i+1, m)
			acc.Add(i+1, m) // duplicate deliveries never count twice
		}
		if !acc.Done() {
			t.Errorf("%s: phase 1 not done at %d replies", c.name, len(c.replies))
		}
		if acc.Hit() != c.hit || (c.hit && acc.Choice() != c.want) {
			t.Errorf("%s: hit = %v on %v, want %v on %v", c.name, acc.Hit(), acc.Choice(), c.hit, c.want)
		}
		// A hit the caller does not take is dropped: the decision round starts
		// from the frozen view alone.
		acc.BeginDecide()
		if acc.Hit() || acc.Done() {
			t.Errorf("%s: hit survived BeginDecide", c.name)
		}
	}
	// A miss costs nothing: phase 1 ends at S−t replies whether or not they
	// agree, and never earlier on a hit (S = 5 > 3t+1: a hit at 2t+1 = 3
	// replies still waits for the quorum of 4).
	th5, err := quorum.NewThresholds(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	acc := NewReadAcc(th5)
	for sid := 1; sid <= 3; sid++ {
		acc.Add(sid, state(a, a))
	}
	if !acc.Hit() || acc.Done() {
		t.Errorf("S=5: hit=%v done=%v after 2t+1 agreeing replies, want a hit and an open round", acc.Hit(), acc.Done())
	}
	acc.Add(4, state(b, b))
	if !acc.Hit() || !acc.Done() || acc.Choice() != a {
		t.Errorf("S=5: hit=%v done=%v choice=%v at the quorum", acc.Hit(), acc.Done(), acc.Choice())
	}
}

// fullHit widens TestFastHitExhaustive's decision-round bound (minutes).
var fullHit = flag.Bool("regular.fullhit", false, "TestFastHitExhaustive: enumerate every decision round, not the default subset")

// TestFastHitExhaustive is a bounded-exhaustive safety check of the hit
// rule — one pure function, so robustness reduces to enumerating the states
// it can be shown (the reduce-to-reachability shape of the robustness
// checkers in PAPERS.md). Bound: S = 4, t = 1, timestamps {1,2,3}, values
// {a,b}.
//
// A WORLD fixes which object (none, or s1 — the objects are interchangeable)
// is Byzantine; every timestamp's genuine value is a (values are only ever
// compared under one timestamp, so b stands for "not the genuine value").
// Correct objects hold any (pw, w) with w ≤ pw that the write protocol can
// produce: a pair in some correct w finished its PREWRITE round, so S−2t
// correct objects hold pw at or above it; single-writer registers add that
// a timestamp ℓ in circulation means ℓ−1 completed. The Byzantine object
// answers with any of the 7×7 slot contents. The reader hears any S−t or
// all S of them.
//
// Whenever the rule hits on c: (genuine) a correct object holds c in w;
// (fresh) fewer than S−2t correct objects hold w above c, so no write above
// c has completed; and (never below) however the same fault set answers a
// decision round, the decision procedure returns a pair at or above c, or
// nothing yet. Decision rounds enumerated: each correct object repeats its
// state or moves forward — to any later state with -regular.fullhit, else
// pw to the top, w up to pw, or both — the Byzantine one repeats itself or
// claims a diagonal state — any of the 7, else ⊥ or either top pair — and
// any S−t or all S reply (default: the round-1 repliers again, or all).
func TestFastHitExhaustive(t *testing.T) {
	const S, T, maxTS = 4, 1, 3
	th, err := quorum.NewThresholds(S, T)
	if err != nil {
		t.Fatal(err)
	}
	type slot struct{ pw, w int } // timestamps; the values are the genuine ones
	var states []slot
	for pw := 0; pw <= maxTS; pw++ {
		for w := 0; w <= pw; w++ {
			states = append(states, slot{pw, w})
		}
	}
	repliers := [][]int{{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}, {1, 2, 3, 4}}
	genuine := [maxTS + 1]types.Pair{bot, p(1, "a"), p(2, "a"), p(3, "a")}
	alphabet := []types.Pair{bot, p(3, "a"), p(3, "b"), p(1, "a"), p(1, "b"), p(2, "a"), p(2, "b")}
	diagonal := alphabet[:3] // what the Byzantine object may claim in round 2
	if *fullHit {
		diagonal = alphabet
	}
	for _, mw := range []bool{true, false} {
		for _, byz := range []int{0, 1} {
			mw, byz := mw, byz
			t.Run(fmt.Sprintf("mw=%v/byz=%d", mw, byz), func(t *testing.T) {
				t.Parallel()
				first := 1 + byz // correct objects: first..S
				cur := make([]slot, S+1)
				acc := NewReadAcc(th)
				views := make([]srvView, S+1)
				var d decider
				hits, completions := 0, 0

				reachable := func() bool {
					top := 0
					for i := first; i <= S; i++ {
						top = max(top, cur[i].pw)
						if l := cur[i].w; l > 0 {
							n := 0
							for j := first; j <= S; j++ {
								if cur[j].pw >= l {
									n++
								}
							}
							if n < S-2*T {
								return false
							}
						}
					}
					if !mw && top >= 2 {
						n := 0
						for j := first; j <= S; j++ {
							if cur[j].w >= top-1 {
								n++
							}
						}
						return n >= S-2*T
					}
					return true
				}

				// round2 enumerates the decision rounds that can follow the
				// hit on c over view q, correct object i onward.
				var round2 func(i int, c types.Pair, q []int)
				round2 = func(i int, c types.Pair, q []int) {
					if i > S {
						for _, r2 := range repliers {
							if !*fullHit && len(r2) < S && &r2[0] != &q[0] {
								continue
							}
							for sid := 1; sid <= S; sid++ {
								views[sid].has2 = false
							}
							for _, sid := range r2 {
								views[sid].has2 = true
							}
							completions++
							if got, ok := d.decide(th, views, mw); ok && got.TS.Less(c.TS) {
								t.Fatalf("hit on %v over %v, but the decision round %v of %v returns %v", c, q, r2, views[1:], got)
							}
						}
						return
					}
					for _, nx := range states {
						if nx.pw < cur[i].pw || nx.w < cur[i].w {
							continue
						}
						if !*fullHit && (nx.pw != cur[i].pw && nx.pw != maxTS || nx.w != cur[i].w && nx.w != nx.pw) {
							continue
						}
						views[i].pw2, views[i].w2 = genuine[nx.pw], genuine[nx.w]
						round2(i+1, c, q)
					}
				}

				check := func() {
					for _, q := range repliers {
						acc.Reset()
						for sid := 1; sid <= S; sid++ {
							views[sid].has1 = false
						}
						for _, sid := range q {
							views[sid].has1 = true
							acc.Add(sid, state(views[sid].pw1, views[sid].w1))
						}
						if !acc.Hit() {
							continue
						}
						hits++
						c := acc.Choice()
						held, above := false, 0
						for i := first; i <= S; i++ {
							held = held || genuine[cur[i].w] == c
							if c.TS.Less(types.At(int64(cur[i].w))) {
								above++
							}
						}
						if !held {
							t.Fatalf("hit on %v over %v of %v: no correct object holds it in w", c, q, views[1:])
						}
						if above >= S-2*T {
							t.Fatalf("hit on %v over %v of %v: %d correct objects hold w above it — a newer write may have completed", c, q, views[1:], above)
						}
						if byz == 0 {
							round2(1, c, q)
							continue
						}
						for k := -1; k < len(diagonal); k++ {
							views[1].pw2, views[1].w2 = views[1].pw1, views[1].w1
							if k >= 0 {
								views[1].pw2, views[1].w2 = diagonal[k], diagonal[k]
							}
							round2(2, c, q)
						}
					}
				}

				var correct func(i int)
				correct = func(i int) {
					if i > S {
						if reachable() {
							check()
						}
						return
					}
					for _, st := range states {
						cur[i] = st
						views[i].pw1, views[i].w1 = genuine[st.pw], genuine[st.w]
						correct(i + 1)
					}
				}
				if byz == 0 {
					correct(1)
				} else {
					for _, pw := range alphabet {
						for _, w := range alphabet {
							views[1].pw1, views[1].w1 = pw, w
							correct(2)
						}
					}
				}
				if hits == 0 || completions == 0 {
					t.Fatalf("vacuous: %d hits, %d decision rounds", hits, completions)
				}
				t.Logf("%d hits, %d decision rounds checked", hits, completions)
			})
		}
	}
}
