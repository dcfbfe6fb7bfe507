package server

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"robustatomic/internal/types"
)

// TestBareEqualsOnePartBundle: a bare message and the bundle whose one part
// carries it to the writers' register are one request (types.Address) — for
// every request kind, under the correct automaton and under every behavior
// that looks inside a message, the two leave the same register state and the
// bundle's one part IS the bare reply.
func TestBareEqualsOnePartBundle(t *testing.T) {
	p := func(seq int64, v string) types.Pair { return types.Pair{TS: types.At(seq), Val: types.Value(v)} }
	held := p(2, "b")
	reqs := []types.Message{
		{Kind: types.MsgPreWrite, Pair: p(1, "a"), Token: 5},
		{Kind: types.MsgWrite, Pair: p(1, "a"), Token: 5},
		{Kind: types.MsgPreWrite, Pair: held},
		{Kind: types.MsgRead1},
		{Kind: types.MsgWriteBack, Pair: held, Token: 6},
		{Kind: types.MsgWrite, Pair: types.Pair{TS: held.TS}, Have: []types.Have{{TS: held.TS, Digest: held.Val.Digest()}}}, // by reference
		{Kind: types.MsgWrite, Pair: types.Pair{TS: types.At(9)}, Have: []types.Have{{TS: types.At(9), Digest: 1}}},         // refused
		{Kind: types.MsgRead1, Have: []types.Have{{TS: held.TS, Digest: held.Val.Digest()}, {TS: types.At(1), Digest: 77}}},
		{Kind: types.MsgRead1, Flags: types.FlagNoValues},
		{Kind: types.MsgABDQuery},
		{Kind: types.MsgABDStore, Pair: p(4, "d")},
		{Kind: types.MsgABDQuery},
		{Kind: types.MsgWrite, Pair: p(3, "c")}, // older than w: acknowledged, not applied
		{Kind: types.MsgRead1},
		{Kind: types.MsgAck}, // not a request: answered with the state
		{Kind: types.MsgState},
	}
	behaviors := map[string]func() Behavior{
		"Honest":     func() Behavior { return Honest{} },
		"Garbage":    func() Behavior { return Garbage{} },
		"Stale":      func() Behavior { return &Stale{} },
		"FalseElide": func() Behavior { return &FalseElide{} },
		"FalseNeed":  func() Behavior { return FalseNeed{} },
		"FalseAck":   func() Behavior { return FalseAck{} },
	}
	for name, mk := range behaviors {
		t.Run(name, func(t *testing.T) {
			bare, bundled := NewStore(), NewStore()
			onBare, onBundle := mk(), mk()
			for i, m := range reqs {
				m.Seq = 10 + i
				got, sent := onBare.Reply(bare, types.Reader(1), m.Clone())
				part := m.Clone()
				part.Seq = 0
				wrapped := types.Message{Kind: types.MsgMux, Seq: m.Seq, Sub: []types.SubMsg{{Reg: types.WriterReg, Msg: part}}}
				if Mutates(m) != Mutates(wrapped) {
					t.Errorf("request %d (%v): Mutates(bare) = %v, Mutates(bundle) = %v", i, m.Kind, Mutates(m), Mutates(wrapped))
				}
				gotB, sentB := onBundle.Reply(bundled, types.Reader(1), wrapped)
				if !sent || !sentB {
					t.Fatalf("request %d (%v): reply withheld (bare %v, bundle %v)", i, m.Kind, sent, sentB)
				}
				if gotB.Kind != types.MsgMux || gotB.Seq != m.Seq || len(gotB.Sub) != 1 || gotB.Sub[0].Reg != types.WriterReg {
					t.Fatalf("request %d (%v): bundle answered with %+v, want a one-part bundle for the writers' register", i, m.Kind, gotB)
				}
				if got.Seq != m.Seq {
					t.Errorf("request %d (%v): bare reply carries seq %d, want %d", i, m.Kind, got.Seq, m.Seq)
				}
				got.Seq = 0
				if !reflect.DeepEqual(got, gotB.Sub[0].Msg) {
					t.Errorf("request %d (%v):\n  bare reply %+v\nbundle part %+v", i, m.Kind, got, gotB.Sub[0].Msg)
				}
				a, _ := bare.Snapshot()
				b, _ := bundled.Snapshot()
				if !bytes.Equal(a, b) {
					t.Fatalf("request %d (%v): register state diverged:\n  bare %x\nbundle %x", i, m.Kind, a, b)
				}
			}
			if got := fmt.Sprint(bundled.ids); got != fmt.Sprint(bare.ids) {
				t.Errorf("the bundle touched registers %v, the bare messages %v", got, bare.ids)
			}
			if st := bare.Reg(types.WriterReg); name != "Garbage" && name != "FalseNeed" && (st.W != p(4, "d") || st.PW != held) {
				t.Errorf("final state %+v: the requests were not applied", st)
			}
		})
	}
}
