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

// readOf returns a one-part conditioned READ of reg over acc, its first
// round begun.
func readOf(k *Known, reg types.RegID, acc Accumulator) (*RegAcc, RoundSpec) {
	ra := &RegAcc{}
	ra.UseKnown(k)
	ra.Part(reg, types.Message{Kind: types.MsgRead1}, acc)
	return ra, ra.Spec("READ1", nil)
}

// offered returns what a handle refreshing now would offer for reg: the
// set's pairs and the have-list naming them.
func offered(k *Known, reg types.RegID) ([]types.Pair, []types.Have) {
	in := inflater{known: k}
	in.refresh()
	kr := in.reg(reg)
	if kr == nil {
		return nil, nil
	}
	return kr.pairs[:kr.n], in.have(reg)
}

func TestKnownSetAdmission(t *testing.T) {
	k := NewKnown(th(t, 4, 1))
	reg := types.ReaderReg(2)
	k.Seed(reg, types.BottomPair)                 // ⊥: nothing to elide
	k.Seed(reg, types.Pair{Val: "x"})             // zero timestamp
	k.Seed(types.RegID{Class: 9}, pairAt(1, "x")) // malformed register
	if pairs, have := offered(k, reg); pairs != nil || have != nil || k.ver.Load() != 0 {
		t.Fatalf("degenerate pairs were recorded: %v", pairs)
	}
	for seq := int64(1); seq <= 4; seq++ {
		k.Seed(reg, pairAt(seq, fmt.Sprint("v", seq)))
	}
	pairs, have := offered(k, reg)
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
	k.Seed(reg, pairAt(3, "v3"))
	if k.ver.Load() != before {
		t.Error("seeding an existing entry moved the version")
	}
	// One entry per timestamp: a second value under a timestamp (the
	// crashed-write-back residual) replaces the first.
	k.Seed(reg, pairAt(3, "other"))
	pairs, _ = offered(k, reg)
	if len(pairs) != knownPerReg || pairs[0] != pairAt(3, "other") || pairs[1] != pairAt(4, "v4") || pairs[2] != pairAt(2, "v2") {
		t.Errorf("after a same-timestamp reseed: %v", pairs)
	}
	if pairs, _ := offered(k, types.WriterReg); len(pairs) != 0 {
		t.Error("registers share entries")
	}
	var none *Known
	none.Seed(reg, pairAt(1, "x")) // nil set: the unconditioned read
	if pairs, have := offered(none, reg); pairs != nil || have != nil {
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
	if pairs, _ := offered(k, types.WriterReg); len(pairs) != 0 {
		t.Fatalf("pairs admitted on %d senders: %v", thr.T, pairs)
	}
	spec.Acc.Add(5, state(genuine))
	if pairs, _ := offered(k, types.WriterReg); len(pairs) != 1 || pairs[0] != genuine {
		t.Errorf("after t+1 identical copies: %v, want only %v", pairs, genuine)
	}
}

func TestInflateRejectsUnofferedClaims(t *testing.T) {
	thr := th(t, 4, 1)
	k := NewKnown(thr)
	held := pairAt(5, "held")
	k.Seed(types.WriterReg, held)
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

// TestMuxAccRoutesOutOfOrderReplies: sub-replies are matched positionally
// when the object kept the request's order and by register otherwise;
// registers the round never asked about are ignored.
func TestMuxAccRoutesOutOfOrderReplies(t *testing.T) {
	thr := th(t, 4, 1)
	regs := []types.RegID{types.WriterReg, types.ReaderReg(1), types.ReaderReg(2)}
	accs := make([]*stateAcc, len(regs))
	acc := &RegAcc{} // an unconditioned bundled round
	for i, reg := range regs {
		accs[i] = newStateAcc(thr)
		acc.Part(reg, types.Message{Kind: types.MsgRead1}, accs[i])
	}
	acc.Spec("AREAD1", nil)
	sub := func(reg types.RegID, seq int64) types.SubMsg {
		return types.SubMsg{Reg: reg, Msg: types.Message{Kind: types.MsgState, W: pairAt(seq, "v")}}
	}
	acc.Add(1, types.Message{Kind: types.MsgMux, Sub: []types.SubMsg{sub(regs[0], 10), sub(regs[1], 11), sub(regs[2], 12)}})
	acc.Add(2, types.Message{Kind: types.MsgMux, Sub: []types.SubMsg{sub(regs[2], 22), sub(types.ReaderReg(7), 99), sub(regs[0], 20)}})
	for i, want := range []map[int]int64{{1: 10, 2: 20}, {1: 11}, {1: 12, 2: 22}} {
		if len(accs[i].Replies) != len(want) {
			t.Errorf("register %v got %d replies, want %d", regs[i], len(accs[i].Replies), len(want))
		}
		for sid, seq := range want {
			if got := accs[i].Replies[sid].W.TS.Seq; got != seq {
				t.Errorf("register %v, object %d: seq %d, want %d", regs[i], sid, got, seq)
			}
		}
	}
	// Object 2 listed a register nobody asked about in place of one that was:
	// a withheld part.
	if v := acc.Verdict(); v.Withheld != 1<<2 || v.Inflate != 0 {
		t.Errorf("verdict = %+v, want object 2 withholding", v)
	}
}

// TestRequestShapes pins the addressing rule from the client's side: a part
// for the writers' register alone travels bare, a part for any other
// register and any several parts travel as a bundle — on the wire too.
func TestRequestShapes(t *testing.T) {
	thr := th(t, 4, 1)
	read := types.Message{Kind: types.MsgRead1}
	shape := func(regs ...types.RegID) types.Message {
		t.Helper()
		var ra RegAcc
		for _, reg := range regs {
			ra.Part(reg, read, newStateAcc(thr))
		}
		m := ra.Spec("R", nil).Req(1)
		frame, err := wire.AppendRequest(nil, wire.Request{Msg: m})
		if err != nil {
			t.Fatal(err)
		}
		back, err := wire.ParseRequest(frame)
		if err != nil || back.Msg.Kind != m.Kind || len(back.Msg.Sub) != len(m.Sub) {
			t.Fatalf("request for %v does not survive the wire: %+v, %v", regs, back.Msg, err)
		}
		return m
	}
	if m := shape(types.WriterReg); m.Kind != types.MsgRead1 || m.Sub != nil {
		t.Errorf("the writers' register alone: %+v, want the bare READ", m)
	}
	if m := shape(types.ReaderReg(2)); m.Kind != types.MsgMux || len(m.Sub) != 1 || m.Sub[0].Reg != types.ReaderReg(2) || m.Sub[0].Msg.Kind != types.MsgRead1 {
		t.Errorf("a write-back register alone: %+v, want a one-part bundle", m)
	}
	all := []types.RegID{types.WriterReg, types.ReaderReg(1), types.ReaderReg(2)}
	m := shape(all...)
	if m.Kind != types.MsgMux || len(m.Sub) != len(all) {
		t.Fatalf("R+1 registers: %+v, want a bundle of %d", m, len(all))
	}
	for i, reg := range all {
		if m.Sub[i].Reg != reg || m.Sub[i].Msg.Kind != types.MsgRead1 {
			t.Errorf("part %d = %+v, want a READ of %v", i, m.Sub[i], reg)
		}
	}
}

// TestReplyParts: what RegAcc does with the parts of a reply, for the
// one-part and the (R+1)-part use alike — a part for a register the request
// did not list is ignored, a listed register's missing part marks the object
// as withholding, an elision the request did not offer marks it as
// inflating and reaches no accumulator — and a partial round asks only the
// parts named.
func TestReplyParts(t *testing.T) {
	thr := th(t, 4, 1)
	k := NewKnown(thr)
	held := pairAt(5, "held")
	k.Seed(types.ReaderReg(1), held)
	state := func(p types.Pair, flags types.MsgFlags) types.Message {
		if flags != 0 {
			p.Val = ""
		}
		return types.Message{Kind: types.MsgState, PW: p, W: p, Flags: flags}
	}
	const both = types.FlagElidedPW | types.FlagElidedW
	bundle := func(subs ...types.SubMsg) types.Message { return types.Message{Kind: types.MsgMux, Sub: subs} }

	// One part, a write-back register: the reply is a one-part bundle.
	one := newStateAcc(thr)
	ra, spec := readOf(k, types.ReaderReg(1), one)
	if have := spec.Req(1).Sub[0].Msg.Have; len(have) != 1 || have[0].TS != held.TS {
		t.Fatalf("one-part READ offers %v, want %v", have, held.TS)
	}
	ra.Add(1, bundle(types.SubMsg{Reg: types.ReaderReg(1), Msg: state(held, both)}))          // elided as offered
	ra.Add(2, bundle(types.SubMsg{Reg: types.ReaderReg(2), Msg: state(held, 0)}))             // another register's part
	ra.Add(3, bundle(types.SubMsg{Reg: types.ReaderReg(1), Msg: state(pairAt(6, ""), both)})) // un-offered elision
	ra.Add(4, state(held, 0))                                                                 // bare: the writers' register's part
	if len(one.Replies) != 1 || one.Replies[1].W != held {
		t.Errorf("one-part accumulator saw %v, want object 1's inflated reply only", one.Replies)
	}
	if v := ra.Verdict(); v.Withheld != 1<<2|1<<4 || v.Inflate != 1<<3 {
		t.Errorf("one-part verdict = %+v, want objects 2 and 4 withholding, 3 inflating", v)
	}

	// R+1 parts, then a round over the part that missed.
	accs := []*stateAcc{newStateAcc(thr), newStateAcc(thr), newStateAcc(thr)}
	var mux RegAcc
	mux.UseKnown(k)
	for i, reg := range []types.RegID{types.WriterReg, types.ReaderReg(1), types.ReaderReg(2)} {
		mux.Part(reg, types.Message{Kind: types.MsgRead1}, accs[i])
	}
	mux.Spec("AREAD1", nil)
	w := pairAt(9, "w")
	mux.Add(1, bundle(
		types.SubMsg{Reg: types.WriterReg, Msg: state(w, 0)},
		types.SubMsg{Reg: types.ReaderReg(1), Msg: state(held, both)},
		types.SubMsg{Reg: types.ReaderReg(2), Msg: state(types.BottomPair, 0)}))
	mux.Add(2, bundle(
		types.SubMsg{Reg: types.WriterReg, Msg: state(w, 0)},
		types.SubMsg{Reg: types.ReaderReg(2), Msg: state(types.BottomPair, 0)})) // reader 1's part withheld
	mux.Add(3, bundle(
		types.SubMsg{Reg: types.WriterReg, Msg: state(w, both)}, // w was never offered
		types.SubMsg{Reg: types.ReaderReg(1), Msg: state(held, 0)},
		types.SubMsg{Reg: types.ReaderReg(2), Msg: state(types.BottomPair, 0)}))
	for i, want := range []int{2, 2, 3} {
		if len(accs[i].Replies) != want {
			t.Errorf("part %d saw %d replies, want %d", i, len(accs[i].Replies), want)
		}
	}
	if got := accs[1].Replies[1]; got.W != held || got.Flags != 0 {
		t.Errorf("offered elision not inflated: %+v", got)
	}
	// No part has decided anything yet: the verdict is the fan-out's own.
	if v := mux.Verdict(); v != (Verdict{Withheld: 1 << 2, Inflate: 1 << 3}) {
		t.Errorf("verdict = %+v, want object 2 withholding, 3 inflating, nothing else", v)
	}
	for _, a := range accs {
		a.verdict = Verdict{Agree: 1 << 1}
	}
	accs[1].verdict.W = 1 << 4 // one part saw object 4 dissent
	if v := mux.Verdict(); v.W != 1<<4 || v.Withheld != 1<<2 || v.Inflate != 1<<3 || v.Agree != 1<<1 {
		t.Errorf("merged verdict = %+v", v)
	}
	req := mux.Spec("AREAD2", []int{1}).Req(1)
	if req.Kind != types.MsgMux || len(req.Sub) != 1 || req.Sub[0].Reg != types.ReaderReg(1) || len(req.Sub[0].Msg.Have) != 1 {
		t.Errorf("partial round asks %+v, want reader 1's register alone, conditioned", req)
	}
	if mux.Done() {
		t.Error("partial round done before its part's quorum")
	}
	mux.Add(4, bundle(types.SubMsg{Reg: types.ReaderReg(1), Msg: state(held, 0)}, types.SubMsg{Reg: types.WriterReg, Msg: state(w, 0)}))
	if len(accs[0].Replies) != 2 || len(accs[1].Replies) != 3 {
		t.Errorf("partial round: parts saw %d and %d replies, want 2 and 3", len(accs[0].Replies), len(accs[1].Replies))
	}
	if !mux.Done() { // the writers' register still lacks its quorum: not this round's business
		t.Error("partial round not done with its one part's quorum in")
	}
}
