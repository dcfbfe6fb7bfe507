package secret

import (
	"testing"

	"robustatomic/internal/regular"
	"robustatomic/internal/types"
)

// TestAblationColludingForgersCannotHitFastPath is the DESIGN.md §7
// ablation: even if all t Byzantine objects collude on an identical
// fabricated (pair, token) tuple, the fast path's 2t+1 unanimity threshold
// keeps them short by t+1 — at least t+1 correct objects must hold the
// tuple, which forgers can never arrange. This is why the fast path is safe
// even though the reader cannot verify tokens itself.
func TestAblationColludingForgersCannotHitFastPath(t *testing.T) {
	for _, tt := range []int{1, 2, 3} {
		thr := th(t, 3*tt+1, tt)
		acc := regular.NewReadAcc(thr)
		forged := types.Message{
			Kind:  types.MsgState,
			W:     types.Pair{TS: types.At(1 << 30), Val: "colluded"},
			Token: 0xdead,
		}
		for sid := 1; sid <= tt; sid++ {
			acc.Add(sid, forged)
		}
		if acc.Hit() {
			t.Fatalf("t=%d: %d colluders reached the fast path", tt, tt)
		}
		// Correct objects answering genuinely terminate the round without a
		// fast hit (slow path), never adopting the forgery.
		genuine := types.Message{Kind: types.MsgState, W: types.Pair{TS: types.At(1), Val: "a"}, Token: 7}
		for sid := tt + 1; sid <= thr.Quorum()+tt; sid++ {
			acc.Add(sid, genuine)
		}
		if !acc.Done() {
			t.Fatalf("t=%d: round not terminated at quorum", tt)
		}
		if acc.Hit() && acc.Choice().Val == "colluded" {
			t.Fatalf("t=%d: forgery won the fast path", tt)
		}
	}
}

// TestAblationFastPathNeedsUnanimity shows the flip side: with 2t+1
// identical genuine tuples the fast path fires in a single round.
func TestAblationFastPathNeedsUnanimity(t *testing.T) {
	thr := th(t, 7, 2)
	acc := regular.NewReadAcc(thr)
	genuine := types.Message{Kind: types.MsgState, W: types.Pair{TS: types.At(3), Val: "v"}, Token: 5}
	for sid := 1; sid <= 4; sid++ {
		acc.Add(sid, genuine)
	}
	if acc.Hit() {
		t.Fatal("fast path below 2t+1 matches")
	}
	acc.Add(5, genuine)
	if p := acc.Choice(); !acc.Hit() || p != (types.Pair{TS: types.At(3), Val: "v"}) {
		t.Fatalf("fast path = %v, %v", p, acc.Hit())
	}
	// A mismatching token on the same pair must not count toward unanimity.
	acc2 := regular.NewReadAcc(thr)
	for sid := 1; sid <= 4; sid++ {
		acc2.Add(sid, genuine)
	}
	other := genuine
	other.Token = 6
	acc2.Add(5, other)
	if acc2.Hit() {
		t.Fatal("mismatching token counted toward the unanimous tuple")
	}
}
