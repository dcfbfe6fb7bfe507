package proto

import (
	"fmt"
	"testing"

	"robustatomic/internal/quorum"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

func th(t *testing.T, s, tt int) quorum.Thresholds {
	t.Helper()
	out, err := quorum.NewThresholds(s, tt)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func pairAt(seq int64, v string) types.Pair {
	return types.Pair{TS: types.At(seq), Val: types.Value(v)}
}

// stateAcc collects the STATE replies a register's accumulator is handed,
// first per object (regular.StateAcc without the import cycle).
type stateAcc struct {
	need    int
	Replies map[int]types.Message
	verdict Verdict
}

func newStateAcc(thr quorum.Thresholds) *stateAcc {
	return &stateAcc{need: thr.Quorum(), Replies: map[int]types.Message{}}
}

func (a *stateAcc) Add(sid int, m types.Message) {
	if _, dup := a.Replies[sid]; m.Kind == types.MsgState && !dup {
		a.Replies[sid] = m
	}
}
func (a *stateAcc) Done() bool       { return len(a.Replies) >= a.need }
func (a *stateAcc) Verdict() Verdict { return a.verdict }

// readOf returns a conditioned READ of reg over acc, its first round begun.
func readOf(k *Known, reg types.RegID, acc Accumulator) (*RegAcc, RoundSpec) {
	ra := &RegAcc{}
	ra.UseKnown(k)
	ra.Ask(reg, types.Message{Kind: types.MsgRead1}, acc)
	return ra, ra.Spec("READ1")
}

// offered returns what a handle refreshing now would offer: the set's pairs
// and the have-list naming them.
func offered(k *Known) ([]types.Pair, []types.Have) {
	in := inflater{known: k}
	if !in.refresh() {
		return nil, nil
	}
	return in.view.pairs[:in.view.n], in.haves
}

func TestKnownSetAdmission(t *testing.T) {
	k := NewKnown(th(t, 4, 1))
	k.Seed(types.BottomPair)     // ⊥: nothing to elide
	k.Seed(types.Pair{Val: "x"}) // zero timestamp
	if pairs, have := offered(k); pairs != nil || have != nil || k.ver.Load() != 0 {
		t.Fatalf("degenerate pairs were recorded: %v", pairs)
	}
	for seq := int64(1); seq <= 4; seq++ {
		k.Seed(pairAt(seq, fmt.Sprint("v", seq)))
	}
	pairs, have := offered(k)
	if len(pairs) != knownPerReg || pairs[0] != pairAt(4, "v4") || pairs[2] != pairAt(2, "v2") {
		t.Errorf("entries = %v, want the %d newest, newest first", pairs, knownPerReg)
	}
	for i, h := range have {
		if h.TS != pairs[i].TS || h.Digest != pairs[i].Val.Digest() {
			t.Errorf("have[%d] = %+v does not name %v", i, h, pairs[i])
		}
	}
	// Re-seeding an entry changes nothing — the version is what tells
	// handles to refresh their view and rebuild their request.
	before := k.ver.Load()
	k.Seed(pairAt(3, "v3"))
	if k.ver.Load() != before {
		t.Error("seeding an existing entry moved the version")
	}
	// One entry per timestamp: a second value under a timestamp (the
	// crashed-write-back residual) replaces the first.
	k.Seed(pairAt(3, "other"))
	pairs, _ = offered(k)
	if len(pairs) != knownPerReg || pairs[0] != pairAt(3, "other") || pairs[1] != pairAt(4, "v4") || pairs[2] != pairAt(2, "v2") {
		t.Errorf("after a same-timestamp reseed: %v", pairs)
	}
	var none *Known
	none.Seed(pairAt(1, "x")) // nil set: the unconditioned read
	if pairs, have := offered(none); pairs != nil || have != nil {
		t.Error("nil set offers pairs")
	}
}

// TestFullPairsNeedTPlusOneSenders: a pair enters the have-list on the
// strength of full copies only when t+1 objects shipped the identical pair
// in one round — fewer could all be Byzantine, and a forged value in a
// have-list is what would let an adversary aim at the digest.
func TestFullPairsNeedTPlusOneSenders(t *testing.T) {
	thr := th(t, 7, 2)
	k := NewKnown(thr)
	_, spec := readOf(k, types.WriterReg, newStateAcc(thr))
	genuine, forged := pairAt(5, "table"), pairAt(9, "forged")
	state := func(p types.Pair) types.Message { return types.Message{Kind: types.MsgState, PW: p, W: p} }
	spec.Acc.Add(1, state(forged))
	spec.Acc.Add(2, state(forged))
	spec.Acc.Add(2, state(forged)) // a duplicate delivery is not a third sender
	spec.Acc.Add(3, state(genuine))
	spec.Acc.Add(4, state(genuine))
	if pairs, _ := offered(k); len(pairs) != 0 {
		t.Fatalf("pairs admitted on %d senders: %v", thr.T, pairs)
	}
	spec.Acc.Add(5, state(genuine))
	if pairs, _ := offered(k); len(pairs) != 1 || pairs[0] != genuine {
		t.Errorf("after t+1 identical copies: %v, want only %v", pairs, genuine)
	}
}

func TestInflateRejectsUnofferedClaims(t *testing.T) {
	thr := th(t, 4, 1)
	k := NewKnown(thr)
	held := pairAt(5, "held")
	k.Seed(held)
	inner := newStateAcc(thr)
	_, spec := readOf(k, types.WriterReg, inner)
	if req := spec.Req(1); len(req.Have) != 1 || req.Have[0] != (types.Have{TS: held.TS, Digest: held.Val.Digest()}) {
		t.Fatalf("hinted request = %+v", req)
	}
	const both = types.FlagElidedPW | types.FlagElidedW
	rejects := mInflateReject.Value()
	spec.Acc.Add(1, types.Message{Kind: types.MsgState, PW: types.Pair{TS: held.TS}, W: types.Pair{TS: held.TS}, Flags: both})
	spec.Acc.Add(2, types.Message{Kind: types.MsgState, PW: types.Pair{TS: types.At(6)}, W: types.Pair{TS: held.TS}, Flags: both}) // 6 was never offered
	spec.Acc.Add(3, types.Message{Kind: types.MsgState, PW: types.Pair{}, W: types.Pair{}, Flags: types.FlagElidedW})              // nor was ⊥
	if got := inner.Replies[1]; got.PW != held || got.W != held || got.Flags != 0 {
		t.Errorf("offered pair not inflated: %+v", got)
	}
	if len(inner.Replies) != 1 {
		t.Errorf("un-offered claims reached the accumulator: %v", inner.Replies)
	}
	if d := mInflateReject.Value() - rejects; d != 2 {
		t.Errorf("reject counter moved by %d, want 2", d)
	}
}

// TestRegAccIgnoresOtherShapes: a reply reaches the accumulator only as the
// one part answering the register the request asked — bare for the shared
// register (or a one-part bundle naming it), a one-part bundle for any other.
// A reply of any other shape is ignored like a reply of the wrong kind: an
// object that answers so is as good as silent for the round, and it is no
// evidence against the object either.
func TestRegAccIgnoresOtherShapes(t *testing.T) {
	thr := th(t, 4, 1)
	w := pairAt(9, "w")
	state := types.Message{Kind: types.MsgState, PW: w, W: w}
	bundle := func(regs ...types.RegID) types.Message {
		m := types.Message{Kind: types.MsgMux}
		for _, reg := range regs {
			m.Sub = append(m.Sub, types.SubMsg{Reg: reg, Msg: state})
		}
		return m
	}
	for _, tc := range []struct {
		name    string
		asked   types.RegID
		reply   types.Message
		reaches bool
	}{
		{"bare, to the shared register", types.WriterReg, state, true},
		{"a one-part bundle naming the shared register", types.WriterReg, bundle(types.WriterReg), true},
		{"a one-part bundle naming the register asked", types.ReaderReg(2), bundle(types.ReaderReg(2)), true},
		{"a bundle without the register", types.WriterReg, bundle(types.ReaderReg(1)), false},
		{"a two-part bundle", types.WriterReg, bundle(types.WriterReg, types.ReaderReg(1)), false},
		{"a bundle of nothing", types.WriterReg, bundle(), false},
		{"a bare reply to a one-part ReaderReg request", types.ReaderReg(2), state, false},
	} {
		inner := newStateAcc(thr)
		var ra RegAcc
		ra.Ask(tc.asked, types.Message{Kind: types.MsgRead1}, inner)
		ra.Spec("READ1")
		ra.Add(2, tc.reply)
		if got := len(inner.Replies) == 1 && inner.Replies[2].W == w; got != tc.reaches {
			t.Errorf("%s: reached the accumulator %v, want %v", tc.name, got, tc.reaches)
		}
		if d := ra.Verdict().Dissent(); d != 0 {
			t.Errorf("%s: dissent %b, want none", tc.name, d)
		}
	}
}

// TestRequestShapes pins the addressing rule from the client's side: a READ
// of the writers' register travels bare, a READ of any other register as a
// one-part bundle — on the wire too.
func TestRequestShapes(t *testing.T) {
	thr := th(t, 4, 1)
	shape := func(reg types.RegID) types.Message {
		t.Helper()
		var ra RegAcc
		ra.Ask(reg, types.Message{Kind: types.MsgRead1}, newStateAcc(thr))
		m := ra.Spec("R").Req(1)
		frame, err := wire.AppendRequest(nil, wire.Request{Msg: m})
		if err != nil {
			t.Fatal(err)
		}
		back, err := wire.ParseRequest(frame)
		if err != nil || back.Msg.Kind != m.Kind || len(back.Msg.Sub) != len(m.Sub) {
			t.Fatalf("request for %v does not survive the wire: %+v, %v", reg, back.Msg, err)
		}
		return m
	}
	if m := shape(types.WriterReg); m.Kind != types.MsgRead1 || m.Sub != nil {
		t.Errorf("the writers' register: %+v, want the bare READ", m)
	}
	if m := shape(types.ReaderReg(2)); m.Kind != types.MsgMux || len(m.Sub) != 1 || m.Sub[0].Reg != types.ReaderReg(2) || m.Sub[0].Msg.Kind != types.MsgRead1 {
		t.Errorf("a per-reader register: %+v, want a one-part bundle", m)
	}
}

// TestReplyParts: what RegAcc does with a reply — an elision the request
// offered is inflated, a part for a register the request did not ask is
// ignored, an elision the request did not offer marks the object as
// inflating and reaches no accumulator; the verdict is Add's own until the
// accumulator decides, and merged with the accumulator's after.
func TestReplyParts(t *testing.T) {
	thr := th(t, 4, 1)
	k := NewKnown(thr)
	held := pairAt(5, "held")
	k.Seed(held)
	state := func(p types.Pair, flags types.MsgFlags) types.Message {
		if flags != 0 {
			p.Val = ""
		}
		return types.Message{Kind: types.MsgState, PW: p, W: p, Flags: flags}
	}
	const both = types.FlagElidedPW | types.FlagElidedW
	bundle := func(subs ...types.SubMsg) types.Message { return types.Message{Kind: types.MsgMux, Sub: subs} }

	acc := newStateAcc(thr)
	ra, spec := readOf(k, types.WriterReg, acc)
	if have := spec.Req(1).Have; len(have) != 1 || have[0].TS != held.TS {
		t.Fatalf("READ offers %v, want %v", have, held.TS)
	}
	w := pairAt(9, "w")
	ra.Add(1, state(held, both))                                                  // elided as offered
	ra.Add(2, bundle(types.SubMsg{Reg: types.ReaderReg(1), Msg: state(held, 0)})) // another register's part
	ra.Add(3, state(pairAt(6, ""), both))                                         // un-offered elision
	ra.Add(4, state(w, 0))
	if len(acc.Replies) != 2 || acc.Replies[4].W != w {
		t.Errorf("accumulator saw %v, want objects 1 and 4", acc.Replies)
	}
	if got := acc.Replies[1]; got.W != held || got.PW != held || got.Flags != 0 {
		t.Errorf("offered elision not inflated: %+v", got)
	}
	// The accumulator has decided nothing yet: the verdict is Add's own.
	if v := ra.Verdict(); v != (Verdict{Inflate: 1 << 3}) {
		t.Errorf("verdict = %+v, want object 3 inflating, nothing else", v)
	}
	acc.verdict = Verdict{Agree: 1<<1 | 1<<3, W: 1 << 4}
	if v := ra.Verdict(); v != (Verdict{Agree: 1 << 1, W: 1 << 4, Inflate: 1 << 3}) {
		t.Errorf("merged verdict = %+v, want 1 agreeing, 4 dissenting, 3 inflating", v)
	}
}
