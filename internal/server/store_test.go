package server

import (
	"errors"
	"math/rand"
	"testing"

	"robustatomic/internal/types"
)

func pair(ts int64, v string) types.Pair { return types.Pair{TS: types.At(ts), Val: types.Value(v)} }

func TestStorePreWriteWriteMonotone(t *testing.T) {
	s := NewStore()
	r := s.Handle(types.Writer, types.Message{Kind: types.MsgPreWrite, Pair: pair(2, "b"), Seq: 7})
	if r.Kind != types.MsgAck || r.Seq != 7 {
		t.Fatalf("prewrite reply %v", r)
	}
	s.Handle(types.Writer, types.Message{Kind: types.MsgWrite, Pair: pair(2, "b")})
	// Older pair must not regress state.
	s.Handle(types.Writer, types.Message{Kind: types.MsgPreWrite, Pair: pair(1, "a")})
	s.Handle(types.Writer, types.Message{Kind: types.MsgWrite, Pair: pair(1, "a")})
	st := s.Reg(types.WriterReg)
	if st.PW != pair(2, "b") || st.W != pair(2, "b") {
		t.Errorf("state regressed: %+v", st)
	}
}

func TestStoreRead1ReportsState(t *testing.T) {
	s := NewStore()
	s.Handle(types.Writer, types.Message{Kind: types.MsgPreWrite, Pair: pair(3, "c"), Token: 11})
	s.Handle(types.Writer, types.Message{Kind: types.MsgWrite, Pair: pair(2, "b"), Token: 9})
	r := s.Handle(types.Reader(1), types.Message{Kind: types.MsgRead1, Seq: 4})
	if r.Kind != types.MsgState || r.PW != pair(3, "c") || r.W != pair(2, "b") {
		t.Fatalf("read1 reply %v", r)
	}
	if r.TokenPW != 11 || r.Token != 9 {
		t.Errorf("tokens not echoed: %v", r)
	}
	if r.Seq != 4 {
		t.Errorf("seq not echoed")
	}
}

func TestStoreWriteBack(t *testing.T) {
	s := NewStore()
	s.Handle(types.Reader(2), types.Message{Kind: types.MsgWriteBack, Pair: pair(5, "e")})
	if st := s.Reg(types.WriterReg); st.W != pair(5, "e") {
		t.Errorf("writeback ignored: %+v", st)
	}
	if st := s.Reg(types.WriterReg); st.PW != types.BottomPair {
		t.Errorf("writeback touched pw: %+v", st)
	}
}

func TestStoreABD(t *testing.T) {
	s := NewStore()
	r := s.Handle(types.Reader(1), types.Message{Kind: types.MsgABDQuery})
	if r.Kind != types.MsgABDVal || !r.Pair.IsBottom() {
		t.Fatalf("initial abd query %v", r)
	}
	s.Handle(types.Writer, types.Message{Kind: types.MsgABDStore, Pair: pair(1, "a")})
	s.Handle(types.Writer, types.Message{Kind: types.MsgABDStore, Pair: pair(9, "z")})
	s.Handle(types.Writer, types.Message{Kind: types.MsgABDStore, Pair: pair(4, "d")})
	r = s.Handle(types.Reader(1), types.Message{Kind: types.MsgABDQuery})
	if r.Pair != pair(9, "z") {
		t.Errorf("abd query = %v", r.Pair)
	}
}

func TestStoreMuxRoutesPerRegister(t *testing.T) {
	s := NewStore()
	req := types.Message{Kind: types.MsgMux, Seq: 2, Sub: []types.SubMsg{
		{Reg: types.WriterReg, Msg: types.Message{Kind: types.MsgWrite, Pair: pair(1, "a")}},
		{Reg: types.ReaderReg(3), Msg: types.Message{Kind: types.MsgWrite, Pair: pair(7, "x")}},
	}}
	r := s.Handle(types.Reader(3), req)
	if r.Kind != types.MsgMux || len(r.Sub) != 2 || r.Seq != 2 {
		t.Fatalf("mux reply %v", r)
	}
	if s.Reg(types.WriterReg).W != pair(1, "a") {
		t.Errorf("writer reg wrong")
	}
	if s.Reg(types.ReaderReg(3)).W != pair(7, "x") {
		t.Errorf("reader reg wrong")
	}
	if s.Reg(types.ReaderReg(1)).W != types.BottomPair {
		t.Errorf("unrelated reg touched")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := NewStore()
	s.Handle(types.Writer, types.Message{Kind: types.MsgPreWrite, Pair: pair(3, "c"), Token: 5})
	s.Handle(types.Writer, types.Message{Kind: types.MsgWrite, Pair: pair(2, "b")})
	s.Handle(types.Reader(1), types.Message{Kind: types.MsgMux, Sub: []types.SubMsg{
		{Reg: types.ReaderReg(1), Msg: types.Message{Kind: types.MsgWrite, Pair: pair(4, "d")}},
	}})
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Mutate, then restore.
	s.Handle(types.Writer, types.Message{Kind: types.MsgWrite, Pair: pair(99, "zz")})
	if err := s.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if st := s.Reg(types.WriterReg); st.W != pair(2, "b") || st.PW != pair(3, "c") || st.TokenPW != 5 {
		t.Errorf("writer reg after restore: %+v", st)
	}
	if st := s.Reg(types.ReaderReg(1)); st.W != pair(4, "d") {
		t.Errorf("reader reg after restore: %+v", st)
	}
}

func TestRestoreRejectsJunk(t *testing.T) {
	s := NewStore()
	for _, junk := range [][]byte{nil, []byte("junk"), {snapshotVersion, 0xff, 0xff}, {snapshotVersion, 2, 1, 0}} {
		if err := s.Restore(junk); err == nil {
			t.Errorf("junk restore %v accepted", junk)
		}
	}
	// Trailing garbage after a well-formed snapshot must be rejected too.
	good, _ := NewStore().Snapshot()
	if err := s.Restore(append(good, 0)); err == nil {
		t.Error("trailing-garbage restore accepted")
	}
}

// TestScalarSnapshotRefused: a version-0x02 snapshot (scalar timestamps — a
// well-formed one: one register, pw = w = (7, "v")) is refused with the typed
// version error and leaves the store as it was.
func TestScalarSnapshotRefused(t *testing.T) {
	old := []byte{0x02, 1, 0, 0, 7, 1, 'v', 7, 1, 'v', 0, 0}
	s := NewStore()
	s.Handle(types.Writer, types.Message{Kind: types.MsgWrite, Pair: pair(2, "b")})
	if err := s.Restore(old); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("Restore(v0x02) = %v, want ErrSnapshotVersion", err)
	}
	if st := s.Reg(types.WriterReg); st.W != pair(2, "b") {
		t.Errorf("refused restore changed the store: %+v", st)
	}
}

// TestSnapshotSortedWithoutResort pins the incremental sorted-ID invariant:
// registers touched in arbitrary order must still snapshot in ascending
// (Class, Idx) order, including after a Restore, without Snapshot sorting.
func TestSnapshotSortedWithoutResort(t *testing.T) {
	s := NewStore()
	touch := []types.RegID{
		types.ReaderReg(7), types.WriterReg, types.ReaderReg(2),
		types.ReaderReg(9), types.ReaderReg(1),
	}
	for i, id := range touch {
		s.Handle(types.Writer, types.Message{Kind: types.MsgMux, Sub: []types.SubMsg{
			{Reg: id, Msg: types.Message{Kind: types.MsgWrite, Pair: pair(int64(i+1), "v")}},
		}})
	}
	want := []types.RegID{
		types.WriterReg, types.ReaderReg(1), types.ReaderReg(2),
		types.ReaderReg(7), types.ReaderReg(9),
	}
	assertIDs := func(when string) {
		t.Helper()
		if len(s.ids) != len(want) {
			t.Fatalf("%s: ids = %v", when, s.ids)
		}
		for i, id := range want {
			if s.ids[i] != id {
				t.Fatalf("%s: ids[%d] = %v, want %v (ids %v)", when, i, s.ids[i], id, s.ids)
			}
		}
	}
	assertIDs("after touches")
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Determinism: a restored store re-snapshots to identical bytes.
	s2 := NewStore()
	if err := s2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	snap2, err := s2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap) != string(snap2) {
		t.Error("snapshot not deterministic across restore")
	}
	if err := s.Restore(snap); err != nil {
		t.Fatal(err)
	}
	assertIDs("after restore")
	s.Handle(types.Writer, types.Message{Kind: types.MsgMux, Sub: []types.SubMsg{
		{Reg: types.ReaderReg(5), Msg: types.Message{Kind: types.MsgRead1}},
	}})
	want = []types.RegID{
		types.WriterReg, types.ReaderReg(1), types.ReaderReg(2),
		types.ReaderReg(5), types.ReaderReg(7), types.ReaderReg(9),
	}
	assertIDs("after post-restore touch")
}

func TestMutates(t *testing.T) {
	mut := []types.Message{
		{Kind: types.MsgPreWrite},
		{Kind: types.MsgWrite},
		{Kind: types.MsgWriteBack},
		{Kind: types.MsgABDStore},
		{Kind: types.MsgMux, Sub: []types.SubMsg{
			{Reg: types.WriterReg, Msg: types.Message{Kind: types.MsgRead1}},
			{Reg: types.ReaderReg(1), Msg: types.Message{Kind: types.MsgWrite}},
		}},
	}
	for _, m := range mut {
		if !Mutates(m) {
			t.Errorf("Mutates(%v) = false", m.Kind)
		}
	}
	ro := []types.Message{
		{Kind: types.MsgRead1},
		{Kind: types.MsgABDQuery},
		{Kind: types.MsgAck},
		{Kind: types.MsgMux, Sub: []types.SubMsg{
			{Reg: types.WriterReg, Msg: types.Message{Kind: types.MsgRead1}},
		}},
		{Kind: types.MsgMux},
	}
	for _, m := range ro {
		if Mutates(m) {
			t.Errorf("Mutates(%v) = true", m.Kind)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := NewStore()
	s.Handle(types.Writer, types.Message{Kind: types.MsgWrite, Pair: pair(1, "a")})
	c := s.Clone()
	c.Handle(types.Writer, types.Message{Kind: types.MsgWrite, Pair: pair(2, "b")})
	if s.Reg(types.WriterReg).W != pair(1, "a") {
		t.Errorf("clone aliases original")
	}
}

func TestForgeBehavior(t *testing.T) {
	s := NewStore()
	s.Handle(types.Writer, types.Message{Kind: types.MsgWrite, Pair: pair(1, "a")})
	snapOld, _ := s.Snapshot()
	s.Handle(types.Writer, types.Message{Kind: types.MsgWrite, Pair: pair(2, "b")})

	f := &Forge{Snap: snapOld}
	r, ok := f.Reply(s, types.Reader(1), types.Message{Kind: types.MsgRead1})
	if !ok || r.W != pair(1, "a") {
		t.Errorf("forged reply %v", r)
	}
	// Forged state persists and evolves honestly afterwards.
	s.Handle(types.Writer, types.Message{Kind: types.MsgWrite, Pair: pair(3, "c")})
	r, _ = f.Reply(s, types.Reader(1), types.Message{Kind: types.MsgRead1})
	if r.W != pair(3, "c") {
		t.Errorf("post-forge state %v", r)
	}
}

func TestStaleBehavior(t *testing.T) {
	s := NewStore()
	s.Handle(types.Writer, types.Message{Kind: types.MsgWrite, Pair: pair(1, "a")})
	snap, _ := s.Snapshot()
	st := &Stale{Snap: snap}
	// Writes advance the true state but reads see the frozen snapshot.
	st.Reply(s, types.Writer, types.Message{Kind: types.MsgWrite, Pair: pair(5, "e")})
	r, ok := st.Reply(s, types.Reader(1), types.Message{Kind: types.MsgRead1})
	if !ok || r.W != pair(1, "a") {
		t.Errorf("stale read %v", r)
	}
	if s.Reg(types.WriterReg).W != pair(5, "e") {
		t.Errorf("true state did not advance")
	}
}

func TestSilentBehavior(t *testing.T) {
	s := NewStore()
	b := Silent{}
	if _, ok := b.Reply(s, types.Writer, types.Message{Kind: types.MsgWrite, Pair: pair(1, "a")}); ok {
		t.Error("silent replied")
	}
	if s.Reg(types.WriterReg).W != pair(1, "a") {
		t.Error("silent object did not process message")
	}
}

func TestGarbageBehaviorNeverCertifiable(t *testing.T) {
	s := NewStore()
	g := Garbage{}
	r, ok := g.Reply(s, types.Reader(1), types.Message{Kind: types.MsgRead1, Seq: 3})
	if !ok || r.Kind != types.MsgState || r.W.TS.IsZero() || r.Seq != 3 {
		t.Fatalf("garbage read %v", r)
	}
	if r.W.Val == types.Bottom {
		t.Error("garbage returned bottom value")
	}
	r2, _ := g.Reply(s, types.Writer, types.Message{Kind: types.MsgWrite, Pair: pair(1, "a")})
	if r2.Kind != types.MsgAck {
		t.Errorf("garbage write ack %v", r2)
	}
	if s.Reg(types.WriterReg).W != types.BottomPair {
		t.Error("garbage applied the write")
	}
	rm, _ := g.Reply(s, types.Reader(1), types.Message{Kind: types.MsgMux, Sub: []types.SubMsg{
		{Reg: types.WriterReg, Msg: types.Message{Kind: types.MsgRead1}},
	}})
	if rm.Kind != types.MsgMux || len(rm.Sub) != 1 || rm.Sub[0].Msg.Kind != types.MsgState {
		t.Errorf("garbage mux %v", rm)
	}
}

func TestEquivocateBehavior(t *testing.T) {
	s := NewStore()
	s.Handle(types.Writer, types.Message{Kind: types.MsgWrite, Pair: pair(1, "a")})
	snap, _ := s.Snapshot()
	s.Handle(types.Writer, types.Message{Kind: types.MsgWrite, Pair: pair(2, "b")})
	e := Equivocate{Readers: &Stale{Snap: snap}}
	rw, _ := e.Reply(s, types.Writer, types.Message{Kind: types.MsgRead1})
	rr, _ := e.Reply(s, types.Reader(1), types.Message{Kind: types.MsgRead1})
	if rw.W != pair(2, "b") {
		t.Errorf("writer view %v", rw)
	}
	if rr.W != pair(1, "a") {
		t.Errorf("reader view %v", rr)
	}
}

func TestReplayOnlyReplaysHistoricalStates(t *testing.T) {
	s := NewStore()
	b := &ReplayOnly{Rand: rand.New(rand.NewSource(1))}
	seen := map[types.Pair]bool{}
	for i := 1; i <= 20; i++ {
		b.Reply(s, types.Writer, types.Message{Kind: types.MsgWrite, Pair: pair(int64(i), "v")})
	}
	for i := 0; i < 50; i++ {
		r, ok := b.Reply(s, types.Reader(1), types.Message{Kind: types.MsgRead1, Seq: 9})
		if !ok || r.Kind != types.MsgState || r.Seq != 9 {
			t.Fatalf("replay reply %v", r)
		}
		seen[r.W] = true
	}
	if len(seen) < 2 {
		t.Error("replay-only never replayed stale state")
	}
	// Every replayed pair is one the object actually held (or bottom).
	for p := range seen {
		if p.TS.Seq < 0 || p.TS.Seq > 20 {
			t.Errorf("fabricated pair %v", p)
		}
		if !p.TS.IsZero() && p.Val != "v" {
			t.Errorf("fabricated value %v", p)
		}
	}
}

func TestFlakyBehavior(t *testing.T) {
	s := NewStore()
	f := Flaky{Rand: rand.New(rand.NewSource(2)), DropProb: 0.5}
	sent, dropped := 0, 0
	for i := 0; i < 100; i++ {
		if _, ok := f.Reply(s, types.Reader(1), types.Message{Kind: types.MsgRead1}); ok {
			sent++
		} else {
			dropped++
		}
	}
	if sent == 0 || dropped == 0 {
		t.Errorf("flaky not flaky: sent=%d dropped=%d", sent, dropped)
	}
}
