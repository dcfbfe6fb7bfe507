package types

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValueBottom(t *testing.T) {
	if !Bottom.IsBottom() || !Value("").IsBottom() {
		t.Error("bottom detection")
	}
	if Value("x").IsBottom() {
		t.Error("non-bottom flagged")
	}
	if Bottom.String() != "⊥" || Value("x").String() != "x" {
		t.Error("value rendering")
	}
}

func TestTSOrdering(t *testing.T) {
	// Lexicographic (Seq, WID): sequence number first, writer id breaks ties.
	a, b, c := TS{Seq: 1, WID: 9}, TS{Seq: 2, WID: 0}, TS{Seq: 2, WID: 3}
	if !a.Less(b) || !b.Less(c) || !a.Less(c) || c.Less(a) || a.Less(a) {
		t.Error("lexicographic order broken")
	}
	if MaxTS(a, c) != c || MaxTS(c, a) != c || MaxTS(b, b) != b {
		t.Error("MaxTS")
	}
	if n := c.Next(7); n.Seq != 3 || n.WID != 7 {
		t.Errorf("Next = %v", n)
	}
	if !(TS{}).IsZero() || (TS{WID: 1}).IsZero() || !At(0).IsZero() {
		t.Error("IsZero")
	}
	if At(5).String() != "5" || (TS{Seq: 5, WID: 2}).String() != "5.2" {
		t.Errorf("String: %q %q", At(5), TS{Seq: 5, WID: 2})
	}
}

func TestPairOrdering(t *testing.T) {
	if !BottomPair.IsBottom() || !BottomPair.TS.IsZero() {
		t.Error("bottom pair")
	}
	a, b := Pair{TS: At(1), Val: "a"}, Pair{TS: At(2), Val: "b"}
	if !a.Less(b) || b.Less(a) || a.Less(a) {
		t.Error("Less")
	}
	if MaxPair(a, b) != b || MaxPair(b, a) != b || MaxPair(a, a) != a {
		t.Error("MaxPair")
	}
	if got := a.String(); got != "(1,a)" {
		t.Errorf("String = %q", got)
	}
}

func TestMaxPairProperties(t *testing.T) {
	// MaxPair is commutative up to timestamp ties and always returns one of
	// its arguments with the maximal timestamp.
	f := func(s1, s2, w1, w2 int64, v1, v2 string) bool {
		a := Pair{TS: TS{Seq: s1, WID: w1}, Val: Value(v1)}
		b := Pair{TS: TS{Seq: s2, WID: w2}, Val: Value(v2)}
		m := MaxPair(a, b)
		if m != a && m != b {
			return false
		}
		return !m.TS.Less(a.TS) && !m.TS.Less(b.TS)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProcIDs(t *testing.T) {
	if Writer.String() != "w" || !Writer.IsClient() {
		t.Error("writer id")
	}
	if Reader(3).String() != "r3" || !Reader(3).IsClient() {
		t.Error("reader id")
	}
	if Server(7).String() != "s7" || Server(7).IsClient() {
		t.Error("server id")
	}
	if KindWriter.String() != "w" || KindReader.String() != "r" || KindServer.String() != "s" {
		t.Error("kind strings")
	}
	if ProcKind(99).String() != "?" {
		t.Error("unknown kind")
	}
}

func TestRegIDs(t *testing.T) {
	if WriterReg.String() != "REGw" {
		t.Errorf("writer reg = %q", WriterReg.String())
	}
	if ReaderReg(2).String() != "REGr2" {
		t.Errorf("reader reg = %q", ReaderReg(2).String())
	}
	if WriterReg == ReaderReg(0) {
		t.Error("register classes collide")
	}
}

func TestMsgKindStrings(t *testing.T) {
	kinds := []MsgKind{
		MsgPreWrite, MsgWrite, MsgRead1, MsgWriteBack, MsgAck, MsgState,
		MsgABDQuery, MsgABDStore, MsgABDVal, MsgMux, MsgWrongEpoch, MsgNeedValue,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d renders %q (dup or empty)", k, s)
		}
		seen[s] = true
	}
	if MsgKind(99).String() != "MSG(99)" {
		t.Error("unknown kind rendering")
	}
}

func TestMessageClone(t *testing.T) {
	m := Message{
		Kind: MsgMux,
		Sub: []SubMsg{
			{Reg: WriterReg, Msg: Message{Kind: MsgWrite, Pair: Pair{TS: At(1), Val: "a"}}},
		},
	}
	c := m.Clone()
	c.Sub[0].Msg.Pair.Val = "mutated"
	if m.Sub[0].Msg.Pair.Val != "a" {
		t.Error("Clone aliases Sub")
	}
}

func TestMessageString(t *testing.T) {
	if s := (Message{Kind: MsgState, PW: Pair{TS: At(1), Val: "a"}, W: BottomPair}).String(); s != "STATE{pw:(1,a) w:(0,⊥)}" {
		t.Errorf("state string = %q", s)
	}
	if s := (Message{Kind: MsgMux, Sub: make([]SubMsg, 3)}).String(); s != "MUX{3 subs}" {
		t.Errorf("mux string = %q", s)
	}
	if s := (Message{Kind: MsgWrite, Pair: Pair{TS: At(2), Val: "b"}}).String(); s != "WRITE(2,b)" {
		t.Errorf("write string = %q", s)
	}
}

// TestMsgKindWireValues: kinds travel as their numbers (wire frames, WAL
// records), so a deleted kind leaves its number reserved.
func TestMsgKindWireValues(t *testing.T) {
	for kind, want := range map[MsgKind]int{MsgPreWrite: 1, MsgState: 6, MsgABDVal: 9, MsgMux: 11, MsgWrongEpoch: 12, MsgNeedValue: 13} {
		if int(kind) != want {
			t.Errorf("%v = %d on the wire, want %d", kind, int(kind), want)
		}
	}
}

// TestAddressing: the addressing rule, from both ends — Address decides bare
// or bundled, NumParts/Part read either shape back, ReplyTo mirrors it.
func TestAddressing(t *testing.T) {
	read := Message{Kind: MsgRead1, Seq: 4}
	for name, parts := range map[string][]SubMsg{
		"writers' register alone": {{Reg: WriterReg, Msg: read}},
		"a write-back register":   {{Reg: ReaderReg(2), Msg: read}},
		"R+1 registers":           {{Reg: WriterReg, Msg: read}, {Reg: ReaderReg(1), Msg: read}, {Reg: ReaderReg(2), Msg: read}},
		"no registers":            {},
	} {
		m := Address(parts)
		if bare := len(parts) == 1 && parts[0].Reg == WriterReg; bare != (m.Kind != MsgMux) {
			t.Errorf("%s: addressed as %v", name, m)
		}
		reply := ReplyTo(&m)
		if m.NumParts() != len(parts) || reply.NumParts() != len(parts) || (reply.Kind == MsgMux) != (m.Kind == MsgMux) {
			t.Fatalf("%s: %d parts in, %d in the request, %d in its reply %v", name, len(parts), m.NumParts(), reply.NumParts(), reply)
		}
		for i, want := range parts {
			reg, part := m.Part(i)
			rreg, rpart := reply.Part(i)
			if reg != want.Reg || rreg != want.Reg || part.Kind != MsgRead1 || part.Seq != 4 || rpart.Kind != 0 {
				t.Errorf("%s: part %d = %v %v, reply part %v %v", name, i, reg, part, rreg, rpart)
			}
			rpart.Kind = MsgState // filled in place
		}
		for i := range parts {
			if _, rpart := reply.Part(i); rpart.Kind != MsgState {
				t.Errorf("%s: reply part %d was a copy", name, i)
			}
		}
		if len(parts) > 1 {
			parts[1].Reg = ReaderReg(9)
			if reg, _ := m.Part(1); reg == ReaderReg(9) {
				t.Errorf("%s: the bundle aliases the caller's parts", name)
			}
		}
	}
}

// TestMessageSizeUnchanged: a Message is copied by value on every hop, so
// value-eliding writes had to fit the fields it already had (the condition
// rides in Have, the edit in Pair.Val under a flag bit): its size is what it
// was at b63f873.
func TestMessageSizeUnchanged(t *testing.T) {
	if got := unsafe.Sizeof(Message{}); got != 184 {
		t.Errorf("unsafe.Sizeof(types.Message{}) = %d, 184 at b63f873", got)
	}
}

// TestSplice: an edit built splice by splice applies to its base as the
// splices say, and to nothing it does not fit.
func TestSplice(t *testing.T) {
	base := Value("0123456789")
	for _, tc := range []struct {
		name    string
		splices [][3]any // off, del, ins
		want    Value
	}{
		{"nothing", nil, "0123456789"},
		{"replace", [][3]any{{2, 3, "abc"}}, "01abc56789"},
		{"grow and shrink", [][3]any{{0, 1, "zero"}, {5, 4, ""}}, "zero12349"},
		{"insert at both ends", [][3]any{{0, 0, "<"}, {10, 0, ">"}}, "<0123456789>"},
		{"two at one offset", [][3]any{{4, 0, "a"}, {4, 0, "b"}, {4, 2, "c"}}, "0123abc6789"},
		{"everything", [][3]any{{0, 10, ""}}, ""},
	} {
		var e Edit
		for _, sp := range tc.splices {
			e.Splice(sp[0].(int), sp[1].(int), []byte(sp[2].(string)))
		}
		if got, ok := base.Splice(e.Value(len(base))); !ok || got != tc.want {
			t.Errorf("%s: %q, %v; want %q", tc.name, got, ok, tc.want)
		}
		if len(tc.splices) > 0 {
			if got, ok := (base + "x").Splice(e.Value(len(base))); ok {
				t.Errorf("%s: applied to a longer base: %q", tc.name, got)
			}
		}
	}
	var e Edit
	e.Splice(8, 3, nil)
	for name, bad := range map[string]Value{
		"no length":         "",
		"past the end":      e.Value(len(base)),
		"wrong length":      "\x0b",
		"truncated insert":  "\x0c\x00\x00\x05ab",
		"truncated header":  "\x0a\x01",
		"overlong uvarint":  "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01",
		"length too large":  "\xff\xff\xff\x7f",
		"gap past the base": "\x0a\x0b\x00\x00",
	} {
		if got, ok := base.Splice(bad); ok {
			t.Errorf("%s: accepted, yielding %q", name, got)
		}
	}
}
