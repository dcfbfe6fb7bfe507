package core

import (
	"fmt"
	"testing"

	"robustatomic/internal/checker"
	"robustatomic/internal/proto"
	"robustatomic/internal/regular"
	"robustatomic/internal/server"
	"robustatomic/internal/sim"
	"robustatomic/internal/tcpnet"
	"robustatomic/internal/types"
)

func pairAt(seq int64, v string) types.Pair {
	return types.Pair{TS: types.At(seq), Val: types.Value(v)}
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
	spec := proto.RoundSpec{Acc: regular.NewStateAcc(thr)}
	k.hintRead(&spec, types.WriterReg)
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
	inner := regular.NewStateAcc(thr)
	spec := proto.RoundSpec{Acc: inner}
	k.hintRead(&spec, types.WriterReg)
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
	accs := make([]*regular.StateAcc, len(regs))
	parts := make([]MuxPart, len(regs))
	for i, reg := range regs {
		accs[i] = regular.NewStateAcc(thr)
		parts[i] = MuxPart{Reg: reg, Req: readReq, Acc: accs[i]}
	}
	acc := &muxAcc{parts: parts, read: parts} // an unconditioned bundled round
	acc.refresh()
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
}

// TestSteadyStateReadsMoveTimestampsOnly drives real object automata: once a
// handle has decided a pair, every later reply to it is elided, the request
// bundle is reused, and the read's result is unchanged.
func TestSteadyStateReadsMoveTimestampsOnly(t *testing.T) {
	thr := th(t, 4, 1)
	lc := tcpnet.NewMemMux(server.NewHosts(4), 0, 0)
	defer lc.Close()
	if err := NewWriter(lc.Client(types.Writer, 0), thr).Write("a"); err != nil {
		t.Fatal(err)
	}
	r := NewReader(lc.Client(types.Reader(1), 0), thr, 1, 2)
	if v, err := r.Read(); err != nil || v != "a" {
		t.Fatalf("first read = %q, %v", v, err)
	}
	bundle := &r.req.Sub[0]
	inflated := mInflated.Value()
	if v, err := r.Read(); err != nil || v != "a" {
		t.Fatalf("second read = %q, %v", v, err)
	}
	// 1 round (every register hits) × the S−t = 3 objects it hears before it
	// is Done × (pw, w) of the shared register; the write-back registers are
	// empty, so there is nothing else to elide.
	if d := mInflated.Value() - inflated; d != 6 {
		t.Errorf("steady-state read re-inflated %d values, want 6", d)
	}
	if r.OneRound != 1 {
		t.Errorf("steady-state read took the decision round (one-round reads: %d)", r.OneRound)
	}
	if bundle != &r.req.Sub[0] {
		t.Error("steady-state read rebuilt its request bundle")
	}
	if allocs := testing.AllocsPerRun(50, func() { r.Read() }); allocs > 9 {
		// What remains is the objects' reply bundles (1 round × 4 objects) and
		// the round's own reply channel and deadline timer; the client side of
		// a hinted read — hit test included — allocates nothing.
		t.Errorf("steady-state read allocates %.0f times", allocs)
	}
}

// TestAtomicDespiteFalseElide: a Byzantine object answering with elision
// claims the request never justified — alone, or only toward readers — costs
// the reads nothing but its own replies: they terminate, stay atomic, and
// the dropped claims are counted.
func TestAtomicDespiteFalseElide(t *testing.T) {
	for _, tt := range []int{1, 2} {
		S := 3*tt + 1
		thr := th(t, S, tt)
		for _, name := range []string{"falseelide", "equivocate"} {
			t.Run(fmt.Sprintf("t=%d/%s", tt, name), func(t *testing.T) {
				cl := newCluster(thr, 2)
				h := &checker.History{}
				s := sim.New(sim.Config{Servers: S, History: h})
				defer s.Close()
				mustRun(t, s, s.Spawn("w1", types.Writer, checker.OpWrite, "a", cl.writeOp("a")))
				for i := 1; i <= tt; i++ {
					if name == "equivocate" {
						s.SetByzantine(i, server.Equivocate{Readers: &server.FalseElide{}})
					} else {
						s.SetByzantine(i, &server.FalseElide{})
					}
				}
				rejects := mInflateReject.Value()
				// correctOnly drives op on the correct objects' replies alone:
				// it must terminate without the liars' help.
				correctOnly := func(op *sim.Op) types.Value {
					t.Helper()
					for !op.Done() {
						if err := s.CheckLiveness(op); err != nil {
							t.Fatalf("liveness: %v", err)
						}
					}
					v, _ := op.Result()
					return v
				}
				for i, want := range []types.Value{"a", "b", "c", "d"} {
					if i > 0 {
						mustRun(t, s, s.Spawn(fmt.Sprint("w", i+1), types.Writer, checker.OpWrite, want, cl.writeOp(want)))
					}
					for rd := 1; rd <= 2; rd++ {
						// First with every object's replies delivered (the
						// false claims reach the reader), then without.
						op := s.Spawn(fmt.Sprintf("r%d.%d.all", rd, i), types.Reader(rd), checker.OpRead, types.Bottom, cl.readOp(rd))
						if v := mustRun(t, s, op); v != want {
							t.Errorf("reader %d after write %q read %q", rd, want, v)
						}
						op = s.Spawn(fmt.Sprintf("r%d.%d.correct", rd, i), types.Reader(rd), checker.OpRead, types.Bottom, cl.readOp(rd))
						if v := correctOnly(op); v != want {
							t.Errorf("reader %d after write %q read %q", rd, want, v)
						}
					}
				}
				if err := checker.CheckAtomicMW(h); err != nil {
					t.Error(err)
				}
				if mInflateReject.Value() == rejects {
					t.Error("no false elision claim was counted")
				}
			})
		}
	}
}

// TestCertifiedReadOffersWritersPair: the certified read-modify-write of a
// writer whose last pair is still current is answered with timestamps — the
// rebase that finds nothing to rebase onto moves no value.
func TestCertifiedReadOffersWritersPair(t *testing.T) {
	thr := th(t, 4, 1)
	lc := tcpnet.NewMemMux(server.NewHosts(4), 0, 0)
	defer lc.Close()
	w := NewWriter(lc.Client(types.Writer, 0), thr)
	modify := func(v types.Value) types.Pair {
		t.Helper()
		var saw types.Pair
		if _, err := w.Modify(func(cur types.Pair) (types.Value, error) {
			saw = cur
			return v, nil
		}); err != nil {
			t.Fatal(err)
		}
		return saw
	}
	if saw := modify("a"); saw != types.BottomPair {
		t.Fatalf("first modify saw %v", saw)
	}
	inflated := mInflated.Value()
	if saw := modify("b"); saw.Val != "a" {
		t.Fatalf("second modify saw %v, want a", saw)
	}
	if d := mInflated.Value() - inflated; d != 6 { // 1 round (fast hit) × the 3 objects heard × (pw, w)
		t.Errorf("certified read of the writer's own pair re-inflated %d values, want 6", d)
	}
}
