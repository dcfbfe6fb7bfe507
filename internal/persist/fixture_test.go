package persist

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"robustatomic/internal/server"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

var updateWALFixture = flag.Bool("update-wal-fixture", false, "rewrite testdata/wal_260047d from this build (a deliberate WAL format change only)")

const walFixtureDir = "testdata/wal_260047d"

// fixtureRequests is what the fixture's log holds: every shape a mutating
// request takes — bare (the writers' register), a one-register bundle (a
// write-back), a bundle spanning registers, and a batch frame across
// register instances — over multi-writer timestamps and tokens.
func fixtureRequests() []wire.Request {
	mw := func(seq, wid int64, v string) types.Pair {
		return types.Pair{TS: types.TS{Seq: seq, WID: wid}, Val: types.Value(v)}
	}
	bundle := func(subs ...types.SubMsg) types.Message { return types.Message{Kind: types.MsgMux, Sub: subs} }
	return []wire.Request{
		{ID: 1, From: types.Writer, Reg: 0, Msg: types.Message{Kind: types.MsgPreWrite, Pair: pair(1, "a"), Token: 9, Seq: 3}},
		{ID: 2, From: types.Writer, Reg: 0, Msg: types.Message{Kind: types.MsgWrite, Pair: pair(1, "a"), Token: 9, Seq: 4}},
		{ID: 3, From: types.WriterID(2), Epoch: 4, Reg: 7, Msg: types.Message{Kind: types.MsgPreWrite, Pair: mw(5, 2, "table")}},
		{ID: 4, From: types.Reader(3), Reg: 7, Msg: bundle(
			types.SubMsg{Reg: types.ReaderReg(3), Msg: types.Message{Kind: types.MsgPreWrite, Pair: pair(2, "5.2|table")}})},
		{ID: 5, From: types.Reader(3), Reg: 7, Msg: bundle(
			types.SubMsg{Reg: types.ReaderReg(3), Msg: types.Message{Kind: types.MsgWrite, Pair: pair(2, "5.2|table")}})},
		{ID: 6, From: types.Reader(1), Reg: 2, Msg: bundle(
			types.SubMsg{Reg: types.WriterReg, Msg: types.Message{Kind: types.MsgWriteBack, Pair: mw(8, 1, "wb")}},
			types.SubMsg{Reg: types.ReaderReg(1), Msg: types.Message{Kind: types.MsgRead1}},
			types.SubMsg{Reg: types.ReaderReg(2), Msg: types.Message{Kind: types.MsgPreWrite, Pair: pair(4, "8.1|wb")}})},
		{ID: 7, From: types.WriterID(1), Subs: []wire.SubReq{
			{Reg: 1, Msg: types.Message{Kind: types.MsgPreWrite, Pair: mw(3, 1, "s1")}},
			{Reg: 2, Msg: types.Message{Kind: types.MsgWrite, Pair: mw(9, 1, "s2")}},
			{Reg: 3, Msg: types.Message{Kind: types.MsgABDStore, Pair: pair(6, "abd")}},
		}},
	}
}

// TestReplaysParentWAL: the write-ahead log an object running commit 260047d
// left behind after a kill -9 (testdata, with the state THAT binary replayed
// it to) replays to the same register state under this one — a record is a
// wire frame, and neither the frame nor what the object does with one moved.
func TestReplaysParentWAL(t *testing.T) {
	if *updateWALFixture {
		if err := os.RemoveAll(walFixtureDir); err != nil {
			t.Fatal(err)
		}
		e, _ := open(t, walFixtureDir, Options{Mode: FsyncOff})
		for _, req := range fixtureRequests() {
			if err := e.Append(req); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Replay a copy: Open starts a new generation in the directory it is given.
	dir := t.TempDir()
	logs, err := filepath.Glob(filepath.Join(walFixtureDir, "wal-*"+walSuffix))
	if err != nil || len(logs) == 0 {
		t.Fatalf("no fixture log in %s (%v)", walFixtureDir, err)
	}
	for _, path := range logs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(path)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	e, stores := open(t, dir, Options{Mode: FsyncOff})
	defer e.Close()
	got, err := server.EncodeStores(stores)
	if err != nil {
		t.Fatal(err)
	}
	statePath := filepath.Join(walFixtureDir, "state.snap")
	if *updateWALFixture {
		if err := os.WriteFile(statePath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("replayed state differs from the state commit 260047d replayed this log to:\n got %x\nwant %x", got, want)
	}
	// And it is the state the requests describe, not merely an equal one.
	if w := stores[7].Reg(types.ReaderReg(3)).W; w != pair(2, "5.2|table") {
		t.Errorf("instance 7, reader 3's write-back register: w = %v", w)
	}
	if st := stores[2].Reg(types.WriterReg); st.W.Val != "s2" || st.PW.Val != "" {
		t.Errorf("instance 2, shared register: %+v", st)
	}
}
