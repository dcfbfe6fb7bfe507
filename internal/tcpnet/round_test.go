package tcpnet

import (
	"strings"
	"testing"

	"robustatomic/internal/proto"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

// framedLink is all a round driven by hand asks of its link: whether it frames
// (so the conditioned form goes out, and a refusal of it is answered).
type framedLink struct{ Link }

func (framedLink) Framed() bool { return true }

// pairAcc records the pair each object's reply carried; it is done once
// every object has replied.
type pairAcc map[int]types.Pair

func (a pairAcc) Add(sid int, m types.Message) { a[sid] = m.Pair }
func (a pairAcc) Done() bool                   { return len(a) == 4 }

// TestReversedBatchedReplies: a batched reply is routed by register instance,
// not by position. Sub-replies that arrive in reverse order reach each
// sub-round's accumulator, and a reply in reverse order that says `need value`
// for one sub-round gets that sub-round, and only it, resent in full, once —
// whatever the refuser says next.
func TestReversedBatchedReplies(t *testing.T) {
	const S = 4
	m := NewLinkMux(S, framedLink{})
	var posted [S + 1][]wire.Request
	post := func(sid int, req wire.Request, awaited bool) error {
		posted[sid] = append(posted[sid], req)
		return nil
	}
	// reply answers object sid's last request, its sub-replies reversed.
	reply := func(r *round, sid int, msg func(reg int) types.Message) bool {
		t.Helper()
		req := posted[sid][len(posted[sid])-1]
		rp := Reply{Sid: sid}
		for i := len(req.Subs) - 1; i >= 0; i-- {
			rp.Subs = append(rp.Subs, wire.SubReq{Reg: req.Subs[i].Reg, Msg: msg(req.Subs[i].Reg)})
		}
		done, err := r.resolve(rp, post)
		if err != nil {
			t.Fatal(err)
		}
		return done
	}

	held := map[int]types.Pair{1: {TS: types.At(1), Val: "one"}, 2: {TS: types.At(2), Val: "two"}}
	accs := map[int]pairAcc{1: {}, 2: {}}
	spec := proto.RoundSpec{Label: "READ"}
	for reg := 1; reg <= 2; reg++ {
		spec.Subs = append(spec.Subs, proto.SubRound{Reg: reg, Req: func(int) types.Message { return types.Message{Kind: types.MsgRead1} }, Acc: accs[reg]})
	}
	var r round
	if _, err := r.begin(m, types.Reader(1), 0, 0, &spec, post); err != nil {
		t.Fatal(err)
	}
	for sid := 1; sid <= S; sid++ {
		done := reply(&r, sid, func(reg int) types.Message { return types.Message{Kind: types.MsgState, Pair: held[reg]} })
		if done != (sid == S) {
			t.Fatalf("after object %d's reply the round is done=%v", sid, done)
		}
	}
	for reg, acc := range accs {
		for sid := 1; sid <= S; sid++ {
			if acc[sid] != held[reg] {
				t.Errorf("register %d, object %d: routed %v, want %v", reg, sid, acc[sid], held[reg])
			}
		}
	}

	// A conditioned write batch: object 4 refuses register 1's sub-round before
	// the round is done — and again, to the full form.
	full := fullMsg{Kind: types.MsgPreWrite, Pair: types.Pair{TS: types.At(3), Val: types.Value(strings.Repeat("k=v;", 64))}}
	cond := types.Message{Kind: types.MsgPreWrite, Flags: types.FlagSplice, Pair: types.Pair{TS: types.At(3), Val: "edit"},
		Have: []types.Have{{TS: types.At(2), Digest: 1}}}
	spec = proto.RoundSpec{Label: "PREWRITE"}
	for reg := 1; reg <= 2; reg++ {
		spec.Subs = append(spec.Subs, proto.SubRound{Reg: reg, Req: func(int) types.Message { return cond }, Full: full, Acc: proto.NewAckBits(3)})
	}
	posted = [S + 1][]wire.Request{}
	resent := mResentFull.Value()
	if _, err := r.begin(m, types.Writer, 0, 0, &spec, post); err != nil {
		t.Fatal(err)
	}
	need := func(reg int) types.Message {
		if reg == 1 {
			return types.Message{Kind: types.MsgNeedValue}
		}
		return types.Message{Kind: types.MsgAck}
	}
	reply(&r, 4, need)
	reply(&r, 4, need)
	for sid := 1; sid < S; sid++ {
		if done := reply(&r, sid, func(int) types.Message { return types.Message{Kind: types.MsgAck} }); done != (sid == S-1) {
			t.Fatalf("after object %d's ack the round is done=%v", sid, done)
		}
	}
	if len(posted[4]) != 2 {
		t.Fatalf("the refusing object was sent %d requests, want the batch and one re-send", len(posted[4]))
	}
	if subs := posted[4][1].Subs; len(subs) != 1 || subs[0].Reg != 1 || subs[0].Msg.Have != nil || subs[0].Msg.Pair.Val != full.Pair.Val {
		t.Errorf("re-sent %+v, want register 1's sub-request in full", subs)
	}
	if d := mResentFull.Value() - resent; d != 1 {
		t.Errorf("core_write_resent_full_total moved by %d, want 1", d)
	}
}
