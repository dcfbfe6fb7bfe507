package server

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

// named is the condition naming p: its timestamp and its value's digest.
func named(p types.Pair) []types.Have {
	return []types.Have{{TS: p.TS, Digest: p.Val.Digest()}}
}

// byRef is the conditioned form of a write of p that names p itself.
func byRef(kind types.MsgKind, p types.Pair) types.Message {
	return types.Message{Kind: kind, Pair: types.Pair{TS: p.TS}, Have: named(p), Token: 7}
}

// bySplice is the conditioned form of a write at ts of base's value edited.
func bySplice(kind types.MsgKind, ts types.TS, base types.Pair, edit types.Value) types.Message {
	return types.Message{Kind: kind, Flags: types.FlagSplice, Pair: types.Pair{TS: ts, Val: edit}, Have: named(base), Token: 7}
}

func mustSnapshot(t *testing.T, s *Store) []byte {
	t.Helper()
	b, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestConditionedEqualsUnconditioned carries the object half of the safety
// argument for value-eliding writes: over every (held state × message form),
// a conditioned write either APPLIES — and then the reply and the register's
// whole state equal the unconditioned write's, byte for byte — or is REFUSED
// — and then nothing changed, the reply is `need value` with the held
// timestamps, and the full form sent after it leaves exactly the state the
// unconditioned write alone would have.
func TestConditionedEqualsUnconditioned(t *testing.T) {
	ts := func(seq, wid int64) types.TS { return types.TS{Seq: seq, WID: wid} }
	table := strings.Repeat("key=value;", 40)
	base := types.Pair{TS: ts(4, 1), Val: types.Value(table)}
	var e types.Edit
	e.Splice(4, 5, []byte("VALUE"))
	e.Splice(len(table), 0, []byte("new=entry;"))
	edit := e.Value(len(table))
	next, ok := base.Val.Splice(edit)
	if !ok || len(next) != len(table)+10 || !strings.HasPrefix(string(next), "key=VALUE;key=value;") {
		t.Fatalf("edit does not apply to its own base: %q, %v", next, ok)
	}
	ours := types.Pair{TS: ts(5, 1), Val: next}
	twin := types.Pair{TS: base.TS, Val: base.Val[:len(base.Val)-1] + "!"} // base's timestamp, another value
	foreign := types.Pair{TS: ts(6, 2), Val: "a foreign writer's table"}
	old := types.Pair{TS: ts(2, 1), Val: "an old table"}

	// Held states: what the register's pw and w slots hold when the message
	// arrives.
	type held struct {
		name  string
		pw, w types.Pair
	}
	states := []held{
		{"blank", types.Pair{}, types.Pair{}},
		{"settled on the base", base, base},
		{"our PREWRITE landed", ours, base},
		{"our WRITE landed", ours, ours},
		{"base in pw only", base, old},
		{"base in w, pw older", old, base}, // pw < w: a reader's write-back landed in w
		{"a foreign pw landed over ours", foreign, base},
		{"foreign throughout", foreign, foreign},
		{"lagging", old, old},
		{"the base's timestamp under another digest", twin, twin},
	}
	// Message forms: the conditioned message and the unconditioned one it
	// stands for. wantApplied lists the states that hold what it names.
	type form struct {
		name        string
		cond, full  types.Message
		wantApplied []string
	}
	full := func(kind types.MsgKind, p types.Pair) types.Message {
		return types.Message{Kind: kind, Pair: p, Token: 7}
	}
	baseHolders := []string{"settled on the base", "our PREWRITE landed", "base in pw only", "base in w, pw older", "a foreign pw landed over ours"}
	forms := []form{
		{"WRITE by reference", byRef(types.MsgWrite, ours), full(types.MsgWrite, ours),
			[]string{"our PREWRITE landed", "our WRITE landed"}},
		{"WRITEBACK by reference", byRef(types.MsgWriteBack, ours), full(types.MsgWriteBack, ours),
			[]string{"our PREWRITE landed", "our WRITE landed"}},
		{"PREWRITE by splice", bySplice(types.MsgPreWrite, ours.TS, base, edit), full(types.MsgPreWrite, ours), baseHolders},
		{"WRITE by splice", bySplice(types.MsgWrite, ours.TS, base, edit), full(types.MsgWrite, ours), baseHolders},
		{"PREWRITE by reference to the base (same timestamp: a re-send)", byRef(types.MsgPreWrite, base), full(types.MsgPreWrite, base), baseHolders},
		{"reference at another timestamp than the pair it names",
			types.Message{Kind: types.MsgWrite, Pair: types.Pair{TS: ours.TS}, Have: named(base)}, full(types.MsgWrite, ours), nil},
		{"reference that also carries a value",
			types.Message{Kind: types.MsgWrite, Pair: ours, Have: named(ours)}, full(types.MsgWrite, ours), nil},
	}
	// Edits that do not apply to the base they name: refused wherever they
	// arrive, by the same rule.
	var past, short types.Edit
	past.Splice(len(table)-2, 5, nil) // deletes past the end
	short.Splice(0, 1, nil)
	for name, bad := range map[string]types.Value{
		"splice out of range":      past.Value(len(table)),
		"splice length mismatch":   short.Value(len(table) + 3),
		"splice truncated":         edit[:len(edit)-3],
		"splice empty":             "",
		"splice of garbage":        "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01",
		"splice gap past the base": types.Value(append([]byte{5}, 0xff, 0xff, 0x03, 0, 0)),
	} {
		forms = append(forms, form{name, bySplice(types.MsgPreWrite, ours.TS, base, bad), full(types.MsgPreWrite, ours), nil})
	}

	for _, reg := range []types.RegID{types.WriterReg, types.ReaderReg(2)} {
		for _, st := range states {
			for _, f := range forms {
				s := NewStore()
				*s.reg(reg) = RegState{PW: st.pw, W: st.w, TokenPW: 3, TokenW: 3}
				ref := s.Clone()
				before := mustSnapshot(t, s)
				addr := func(m types.Message) types.Message { return types.Address([]types.SubMsg{{Reg: reg, Msg: m}}) }
				got := s.Handle(types.WriterID(1), addr(f.cond))
				want := ref.Handle(types.WriterID(1), addr(f.full))
				_, gotPart := got.Part(0)
				_, wantPart := want.Part(0)
				applied := gotPart.Kind != types.MsgNeedValue
				wantApplied := false
				for _, n := range f.wantApplied {
					wantApplied = wantApplied || n == st.name
				}
				label := reg.String() + " / " + st.name + " / " + f.name
				if applied != wantApplied {
					t.Errorf("%s: applied = %v, want %v (reply %v)", label, applied, wantApplied, gotPart)
					continue
				}
				if applied {
					if !reflect.DeepEqual(*gotPart, *wantPart) {
						t.Errorf("%s: reply %+v, the unconditioned write's is %+v", label, *gotPart, *wantPart)
					}
					if !bytes.Equal(mustSnapshot(t, s), mustSnapshot(t, ref)) {
						t.Errorf("%s: post-state differs from the unconditioned write's:\n got %+v\nwant %+v", label, s.Reg(reg), ref.Reg(reg))
					}
					continue
				}
				if gotPart.PW.TS != st.pw.TS || gotPart.W.TS != st.w.TS || gotPart.PW.Val != "" || gotPart.W.Val != "" {
					t.Errorf("%s: refusal %+v does not report the held timestamps (%v, %v), bare", label, *gotPart, st.pw.TS, st.w.TS)
				}
				if !bytes.Equal(mustSnapshot(t, s), before) {
					t.Errorf("%s: a refused write changed the state: %+v", label, s.Reg(reg))
				}
				// The re-send in full wins: the state the unconditioned write
				// alone leaves.
				s.Handle(types.WriterID(1), addr(f.full))
				if !bytes.Equal(mustSnapshot(t, s), mustSnapshot(t, ref)) {
					t.Errorf("%s: refusal, then the full form: state differs from the unconditioned write's", label)
				}
			}
		}
	}
}

// TestPromotedPairSharesItsValue: a WRITE by reference leaves w holding pw's
// own copy of the value and its memoized digest, like the unconditioned WRITE
// of an equal pair (setW) — a settled register keeps one copy.
func TestPromotedPairSharesItsValue(t *testing.T) {
	s := NewStore()
	p := types.Pair{TS: types.At(3), Val: types.Value(strings.Repeat("t", 4096))}
	s.Handle(types.Writer, types.Message{Kind: types.MsgPreWrite, Pair: p})
	if reply := s.Handle(types.Writer, byRef(types.MsgWrite, p)); reply.Kind != types.MsgAck {
		t.Fatalf("reference to the prewritten pair: %v", reply)
	}
	st := s.reg(types.WriterReg)
	if st.W != st.PW || st.digW == 0 || st.digW != st.digPW || st.digW != p.Val.Digest() {
		t.Fatalf("after promotion: %v / %v, digests %x %x", st.PW.TS, st.W.TS, st.digPW, st.digW)
	}
	if unsafe.StringData(string(st.W.Val)) != unsafe.StringData(string(st.PW.Val)) {
		t.Fatal("the promoted pair holds a second copy of the value")
	}
}

// FuzzSplice throws arbitrary edits at arbitrary bases, directly and through
// the object: applying one never panics, an accepted edit yields exactly the
// length it declares and the bytes outside its splices are the base's, and a
// PREWRITE carrying one either applies as the unconditioned PREWRITE of the
// result or is refused with the state untouched. Seeded with well-formed
// edits and with the frames FuzzWireRequest is seeded with (bytes that parse
// as something else entirely).
func FuzzSplice(f *testing.F) {
	var e types.Edit
	e.Splice(2, 3, []byte("xyz"))
	e.Splice(9, 0, []byte("inserted"))
	f.Add([]byte("0123456789abcdef"), []byte(e.Value(16)))
	f.Add([]byte(""), []byte(new(types.Edit).Value(0)))
	f.Add([]byte("base"), []byte{4})
	f.Add([]byte("base"), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	for _, m := range []types.Message{
		{Kind: types.MsgRead1, Have: []types.Have{{TS: types.At(7), Digest: 77}}},
		{Kind: types.MsgPreWrite, Seq: 7, Pair: types.Pair{TS: types.TS{Seq: 3, WID: 2}, Val: "hello"}},
		{Kind: types.MsgState, PW: types.Pair{TS: types.At(9), Val: "pw-val"}, W: types.Pair{TS: types.At(8), Val: "w"}},
	} {
		frame, err := wire.AppendRequest(nil, wire.Request{From: types.Reader(1), Msg: m})
		if err != nil {
			f.Fatal(err)
		}
		f.Add([]byte("a base the frame was never meant for"), frame)
	}
	f.Fuzz(func(t *testing.T, base, edit []byte) {
		v, ok := types.Value(base).Splice(types.Value(edit))
		s := NewStore()
		held := types.Pair{TS: types.At(1), Val: types.Value(base)}
		s.Handle(types.Writer, types.Message{Kind: types.MsgWrite, Pair: held})
		before := mustSnapshot(t, s)
		reply := s.Handle(types.Writer, bySplice(types.MsgPreWrite, types.At(2), held, types.Value(edit)))
		if !ok {
			if reply.Kind != types.MsgNeedValue || !bytes.Equal(mustSnapshot(t, s), before) {
				t.Fatalf("an edit that does not apply was not refused cleanly: %v", reply)
			}
			return
		}
		if reply.Kind != types.MsgAck || s.Reg(types.WriterReg).PW != (types.Pair{TS: types.At(2), Val: v}) {
			t.Fatalf("an edit that applies was not applied: %v, pw %v", reply, s.Reg(types.WriterReg).PW)
		}
		// Re-derive the result independently from the edit's own fields.
		rest := edit
		cut := func() int {
			x, w := binary.Uvarint(rest)
			rest = rest[w:]
			return int(x)
		}
		size, at, out := cut(), 0, []byte(nil)
		for len(rest) > 0 {
			gap, del, ins := cut(), cut(), cut()
			out = append(append(out, base[at:at+gap]...), rest[:ins]...)
			rest, at = rest[ins:], at+gap+del
		}
		out = append(out, base[at:]...)
		if len(v) != size || string(v) != string(out) {
			t.Fatalf("Splice(%q, %x) = %q, an independent reading gives %q (declared %d bytes)", base, edit, v, out, size)
		}
	})
}
