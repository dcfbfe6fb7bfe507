package server

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"robustatomic/internal/types"
)

// inflate is what a client does with a conditional READ's reply: restore
// the values the object elided from the pairs it offered.
func inflate(t *testing.T, reply types.Message, held []types.Pair) types.Message {
	t.Helper()
	if reply.Kind == types.MsgMux {
		out := reply
		out.Sub = make([]types.SubMsg, len(reply.Sub))
		for i, sub := range reply.Sub {
			out.Sub[i] = types.SubMsg{Reg: sub.Reg, Msg: inflate(t, sub.Msg, held)}
		}
		return out
	}
	lookup := func(ts types.TS) types.Value {
		for _, p := range held {
			if p.TS == ts {
				return p.Val
			}
		}
		t.Fatalf("object elided a pair at %v the request never offered", ts)
		return ""
	}
	if reply.Flags&types.FlagElidedPW != 0 {
		reply.PW.Val = lookup(reply.PW.TS)
	}
	if reply.Flags&types.FlagElidedW != 0 {
		reply.W.Val = lookup(reply.W.TS)
	}
	reply.Flags &^= types.FlagElidedPW | types.FlagElidedW
	return reply
}

func haveList(held []types.Pair) []types.Have {
	var have []types.Have
	for _, p := range held {
		have = append(have, types.Have{TS: p.TS, Digest: p.Val.Digest()})
	}
	return have
}

// TestConditionalReadEquivalence is the mechanism's whole safety claim for a
// correct object: for any register state and any have-list, the inflated
// reply to the conditioned READ equals the reply to the unconditioned one.
func TestConditionalReadEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	regs := []types.RegID{types.WriterReg, types.ReaderReg(1), types.ReaderReg(2)}
	for iter := 0; iter < 500; iter++ {
		s := NewStore()
		// A small timestamp space, and values that depend on (seq, variant),
		// so have-lists hit, miss by timestamp, and — the residual the digest
		// exists for — match the timestamp with a different value.
		pairAt := func() types.Pair {
			seq := int64(1 + rng.Intn(4))
			return types.Pair{TS: types.TS{Seq: seq, WID: int64(rng.Intn(2))}, Val: types.Value(fmt.Sprintf("v%d-%d", seq, rng.Intn(2)))}
		}
		for _, reg := range regs {
			for n := rng.Intn(4); n > 0; n-- {
				kind := types.MsgPreWrite
				if rng.Intn(2) == 0 {
					kind = types.MsgWrite
				}
				s.Handle(types.Writer, types.Message{Kind: types.MsgMux, Sub: []types.SubMsg{{Reg: reg, Msg: types.Message{Kind: kind, Pair: pairAt()}}}})
			}
		}
		var held []types.Pair
		for n := rng.Intn(4); n > 0; n-- {
			p := pairAt()
			dup := false
			for _, q := range held {
				dup = dup || q.TS == p.TS // at most one entry per timestamp
			}
			if !dup {
				held = append(held, p)
			}
		}
		plain := types.Message{Kind: types.MsgMux}
		hinted := types.Message{Kind: types.MsgMux}
		for _, reg := range regs {
			plain.Sub = append(plain.Sub, types.SubMsg{Reg: reg, Msg: types.Message{Kind: types.MsgRead1}})
			hinted.Sub = append(hinted.Sub, types.SubMsg{Reg: reg, Msg: types.Message{Kind: types.MsgRead1, Have: haveList(held)}})
		}
		want := s.Handle(types.Reader(1), plain)
		for round := 0; round < 2; round++ { // second pass runs on memoized digests
			got := inflate(t, s.Handle(types.Reader(1), hinted), held)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d: inflated conditional reply differs\n got %v\nwant %v\nheld %v", iter, got, want, held)
			}
		}
	}
}

func TestConditionalReadElidesHeldValue(t *testing.T) {
	s := NewStore()
	p := pair(3, "the-table")
	s.Handle(types.Writer, types.Message{Kind: types.MsgPreWrite, Pair: p})
	s.Handle(types.Writer, types.Message{Kind: types.MsgWrite, Pair: p})

	elided0, sent0, bytes0 := mReadElided.Value(), mReadSent.Value(), mReadSentBytes.Value()
	full := s.Handle(types.Reader(1), types.Message{Kind: types.MsgRead1})
	if full.PW != p || full.W != p || full.Flags != 0 {
		t.Fatalf("unconditioned read = %+v", full)
	}
	// W == PW ships as one copy, so it counts once.
	if d, b := mReadSent.Value()-sent0, mReadSentBytes.Value()-bytes0; d != 1 || b != int64(len(p.Val)) {
		t.Errorf("sent counters moved by %d values / %d bytes, want 1 / %d", d, b, len(p.Val))
	}

	hit := s.Handle(types.Reader(1), types.Message{Kind: types.MsgRead1, Have: haveList([]types.Pair{p})})
	want := types.Message{Kind: types.MsgState, PW: types.Pair{TS: p.TS}, W: types.Pair{TS: p.TS}, Flags: types.FlagElidedPW | types.FlagElidedW}
	if !reflect.DeepEqual(hit, want) {
		t.Errorf("held pair not elided: %+v", hit)
	}
	if d := mReadElided.Value() - elided0; d != 2 {
		t.Errorf("elided counter moved by %d, want 2", d)
	}

	// Right timestamp, wrong value: the digest must keep the object from
	// eliding a value the client does not hold.
	miss := s.Handle(types.Reader(1), types.Message{Kind: types.MsgRead1, Have: haveList([]types.Pair{pair(3, "another-value")})})
	if miss.PW != p || miss.W != p || miss.Flags != 0 {
		t.Errorf("digest mismatch elided anyway: %+v", miss)
	}
}

func TestNoValuesReadStripsEverything(t *testing.T) {
	s := NewStore()
	s.Handle(types.Writer, types.Message{Kind: types.MsgPreWrite, Pair: pair(5, "new"), Token: 9})
	s.Handle(types.Writer, types.Message{Kind: types.MsgWrite, Pair: pair(4, "old"), Token: 8})
	got := s.Handle(types.Reader(1), types.Message{Kind: types.MsgRead1, Flags: types.FlagNoValues})
	want := types.Message{
		Kind: types.MsgState, PW: types.Pair{TS: types.At(5)}, W: types.Pair{TS: types.At(4)},
		TokenPW: 9, Token: 8, Flags: types.FlagElidedPW | types.FlagElidedW,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("no-values read = %+v, want %+v", got, want)
	}
	// An empty register has nothing to strip and says so.
	if got := NewStore().Handle(types.Reader(1), types.Message{Kind: types.MsgRead1, Flags: types.FlagNoValues}); got.Flags != 0 {
		t.Errorf("empty register reports elided values: %+v", got)
	}
}

// TestDigestIsDerivedState: the memoized digest is never persisted — a
// cloned or restored store elides exactly as the original does, and the
// snapshot bytes do not depend on whether a digest was ever computed.
func TestDigestIsDerivedState(t *testing.T) {
	s := NewStore()
	p := pair(2, "persisted-value")
	s.Handle(types.Writer, types.Message{Kind: types.MsgPreWrite, Pair: p})
	s.Handle(types.Writer, types.Message{Kind: types.MsgWrite, Pair: p})
	cold, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	hinted := types.Message{Kind: types.MsgRead1, Have: haveList([]types.Pair{p})}
	want := s.Handle(types.Reader(1), hinted) // memoizes
	if want.Flags != types.FlagElidedPW|types.FlagElidedW {
		t.Fatalf("original store did not elide: %+v", want)
	}
	warm, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(cold) != string(warm) {
		t.Error("snapshot bytes depend on the memoized digest")
	}
	restored := NewStore()
	if err := restored.Restore(warm); err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*Store{"clone": s.Clone(), "restored": restored} {
		if got := st.Handle(types.Reader(1), hinted); !reflect.DeepEqual(got, want) {
			t.Errorf("%s store: %+v, want %+v", name, got, want)
		}
	}
	// A slot that moves on drops its memo with the old value.
	s.Handle(types.Writer, types.Message{Kind: types.MsgPreWrite, Pair: pair(3, "next")})
	if got := s.Handle(types.Reader(1), hinted); got.PW != pair(3, "next") || got.Flags != types.FlagElidedW {
		t.Errorf("after a newer prewrite: %+v", got)
	}
}

func TestFalseElideLies(t *testing.T) {
	s := NewStore()
	p := pair(4, "current")
	s.Handle(types.Writer, types.Message{Kind: types.MsgPreWrite, Pair: p})
	s.Handle(types.Writer, types.Message{Kind: types.MsgWrite, Pair: p})
	b := &FalseElide{}
	old := pair(2, "older")
	req := types.Message{Kind: types.MsgMux, Sub: []types.SubMsg{{Reg: types.WriterReg, Msg: types.Message{Kind: types.MsgRead1, Have: haveList([]types.Pair{p, old})}}}}
	const both = types.FlagElidedPW | types.FlagElidedW
	var seen []types.TS
	for i := 0; i < 3; i++ {
		reply, ok := b.Reply(s, types.Reader(1), req)
		if !ok || len(reply.Sub) != 1 {
			t.Fatalf("reply %d: %+v ok=%v", i, reply, ok)
		}
		m := reply.Sub[0].Msg
		if m.Flags != both || m.PW.Val != "" || m.W.Val != "" {
			t.Errorf("reply %d is not a pure elision claim: %+v", i, m)
		}
		seen = append(seen, m.W.TS)
	}
	if seen[0] != p.TS || seen[1] != old.TS || seen[2].Seq < 1<<40 {
		t.Errorf("claims = %v, want true / oldest offered / forged timestamps", seen)
	}
	// Writes still land: the behavior lies about reads only.
	if rep, _ := b.Reply(s, types.Writer, types.Message{Kind: types.MsgWrite, Pair: pair(9, "z")}); rep.Kind != types.MsgAck || s.Reg(types.WriterReg).W != pair(9, "z") {
		t.Errorf("write under FalseElide: reply %+v, state %+v", rep, s.Reg(types.WriterReg))
	}
}
