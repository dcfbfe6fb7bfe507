package proto

import (
	"testing"
	"testing/quick"

	"robustatomic/internal/types"
)

func TestCountAccBasics(t *testing.T) {
	acc := NewCountAcc(2, nil)
	if acc.Done() {
		t.Fatal("empty accumulator done")
	}
	acc.Add(1, types.Message{Kind: types.MsgAck})
	acc.Add(1, types.Message{Kind: types.MsgAck}) // duplicate object
	if acc.Done() || acc.Count() != 1 {
		t.Fatalf("duplicate counted: %d", acc.Count())
	}
	acc.Add(2, types.Message{Kind: types.MsgAck})
	if !acc.Done() || acc.Count() != 2 {
		t.Fatal("not done at threshold")
	}
	// Monotone: further adds keep it done.
	acc.Add(3, types.Message{Kind: types.MsgAck})
	if !acc.Done() {
		t.Fatal("done flapped")
	}
}

func TestCountAccFilter(t *testing.T) {
	acc := NewCountAcc(1, func(_ int, m types.Message) bool { return m.Kind == types.MsgState })
	acc.Add(1, types.Message{Kind: types.MsgAck})
	if acc.Done() {
		t.Fatal("filtered message counted")
	}
	acc.Add(2, types.Message{Kind: types.MsgState})
	if !acc.Done() {
		t.Fatal("accepted message not counted")
	}
}

func TestAckAcc(t *testing.T) {
	acc := AckAcc(2)
	acc.Add(1, types.Message{Kind: types.MsgState})
	acc.Add(2, types.Message{Kind: types.MsgAck})
	acc.Add(3, types.Message{Kind: types.MsgAck})
	if !acc.Done() || acc.Count() != 2 {
		t.Fatalf("ack counting: %d", acc.Count())
	}
}

func TestCountAccMonotoneProperty(t *testing.T) {
	// Once done, any further sequence of adds keeps it done.
	f := func(sids []uint8) bool {
		acc := NewCountAcc(3, nil)
		done := false
		for _, sid := range sids {
			acc.Add(int(sid), types.Message{Kind: types.MsgAck})
			if done && !acc.Done() {
				return false
			}
			done = acc.Done()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBitAccLack: the acknowledgements that count toward the quorum also say
// who is left without the expected pair — a PREWRITE's ack by having been past
// it already — and nobody else does: not an object unheard, not one that
// answered `need value`, not a STATE reply.
func TestBitAccLack(t *testing.T) {
	at := func(seq int64) types.Pair { return types.Pair{TS: types.At(seq)} }
	acks := NewAckBits(3)
	acks.Expect(types.At(5))
	acks.Add(1, types.Message{Kind: types.MsgAck, PW: at(4), W: at(4)}) // took the pair
	acks.Add(2, types.Message{Kind: types.MsgAck, PW: at(5), W: at(3)}) // held it already
	acks.Add(3, types.Message{Kind: types.MsgAck, PW: at(7), W: at(2)}) // a later prewrite was there first
	acks.Add(4, types.Message{Kind: types.MsgNeedValue, PW: at(9), W: at(9)})
	acks.Add(5, types.Message{Kind: types.MsgState, PW: at(9), W: at(9)})
	if got := acks.Lack(); got != 1<<3 || acks.MaxTS() != types.At(7) || !acks.Done() {
		t.Errorf("PREWRITE round: lack = %b (max %v, done %v), want object 3 alone (max 7, done)", got, acks.MaxTS(), acks.Done())
	}
}

// TestRegAccConditioned: a write part with a conditioned form asks the objects
// named in full — and whoever is asked through the full form — with the part
// as declared, and everyone else with the condition where the value was, bare
// or bundled as the part's register dictates; without one there is no full
// form to offer.
func TestRegAccConditioned(t *testing.T) {
	p := types.Pair{TS: types.At(3), Val: "the value"}
	named := types.Have{TS: types.At(2), Digest: 42}
	for _, reg := range []types.RegID{types.WriterReg, types.ReaderReg(2)} {
		var ra RegAcc
		ra.Ask(reg, types.Message{Kind: types.MsgPreWrite, Pair: p, Token: 7}, NewAckBits(3))
		if spec := ra.Spec("PREWRITE"); spec.Full != nil {
			t.Fatalf("%v: an unconditioned part offers a full form", reg)
		}
		ra.Conditioned(named, "an edit", types.FlagSplice, 1<<2)
		spec := ra.Spec("PREWRITE")
		_, full := fullOf(t, spec.Req(2))
		_, viaFull := fullOf(t, spec.Full.FullRequest(1))
		gotReg, cond := fullOf(t, spec.Req(1))
		if full.Pair != p || len(full.Have) != 0 || viaFull.Pair != p {
			t.Errorf("%v: the object in full was asked %+v, the full form asks %+v", reg, full, viaFull)
		}
		want := types.Message{Kind: types.MsgPreWrite, Pair: types.Pair{TS: p.TS, Val: "an edit"}, Token: 7, Flags: types.FlagSplice}
		if gotReg != reg || len(cond.Have) != 1 || cond.Have[0] != named {
			t.Errorf("%v: conditioned request addresses %v on %v", reg, gotReg, cond.Have)
		}
		if cond.Have = nil; cond.Kind != want.Kind || cond.Pair != want.Pair || cond.Token != want.Token || cond.Flags != want.Flags {
			t.Errorf("%v: conditioned request %+v, want %+v", reg, cond, want)
		}
	}
}

// TestRegAccReadFullForm: a READ that carries a have-list offers the same
// request without it as its full form — what a link that frames nothing
// sends; a READ with nothing to offer has no other form.
func TestRegAccReadFullForm(t *testing.T) {
	k := NewKnown(th(t, 4, 1))
	var ra RegAcc
	ra.UseKnown(k)
	ra.Ask(types.WriterReg, types.Message{Kind: types.MsgRead1}, NewCountAcc(3, nil))
	if spec := ra.Spec("READ1"); spec.Full != nil {
		t.Fatal("a READ without a have-list offers a full form")
	}
	k.Seed(types.Pair{TS: types.At(2), Val: "held"})
	spec := ra.Spec("READ1")
	gotReg, hinted := fullOf(t, spec.Req(1))
	plainReg, plain := fullOf(t, spec.Full.FullRequest(1))
	if gotReg != types.WriterReg || plainReg != types.WriterReg || len(hinted.Have) != 1 || len(plain.Have) != 0 || plain.Kind != types.MsgRead1 {
		t.Errorf("request %v on %v, full form %v on %v", gotReg, hinted.Have, plainReg, plain.Have)
	}
}

// fullOf returns the one part of request m and its register.
func fullOf(t *testing.T, m types.Message) (types.RegID, types.Message) {
	t.Helper()
	if m.NumParts() != 1 {
		t.Fatalf("request %v has %d parts", m, m.NumParts())
	}
	reg, part := m.Part(0)
	return reg, *part
}
