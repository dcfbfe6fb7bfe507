package persist

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"robustatomic/internal/server"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

var updateWALFixture = flag.Bool("update-wal-fixture", false, "rewrite testdata/wal_gen7 from this build (a deliberate WAL format change only)")

// walFixtureDir holds a log this wire generation (0x07) wrote and the state it
// replays to; parentWALDir the same pair as generation 0x06 wrote it.
const (
	walFixtureDir = "testdata/wal_gen7"
	parentWALDir  = "testdata/wal_gen6"
)

// fixtureRequests is what the fixture's log holds: every shape a mutating
// request takes — bare (the writers' register), a one-register bundle, a
// bundle spanning registers, and a batch frame across register instances —
// over multi-writer timestamps and tokens, and every form a conditioned write
// takes: a WRITE by reference that promotes, a PREWRITE by splice off w, one
// off pw, a reference inside a bundle, a read's write-back (PREWRITE and
// WRITE by reference, of a pair held in w only), and two that replay as the
// refusals they were (a pair not held; the right timestamp under another
// digest).
func fixtureRequests() []wire.Request {
	mw := func(seq, wid int64, v string) types.Pair {
		return types.Pair{TS: types.TS{Seq: seq, WID: wid}, Val: types.Value(v)}
	}
	bundle := func(subs ...types.SubMsg) types.Message { return types.Message{Kind: types.MsgMux, Sub: subs} }
	named := func(p types.Pair) []types.Have { return []types.Have{{TS: p.TS, Digest: p.Val.Digest()}} }
	ref := func(kind types.MsgKind, p types.Pair) types.Message {
		return types.Message{Kind: kind, Pair: types.Pair{TS: p.TS}, Have: named(p)}
	}
	// "table" → "tab1e", then → "tab1e, grown": one byte replaced, a tail added.
	var swap, grow types.Edit
	swap.Splice(3, 1, []byte("1"))
	grow.Splice(5, 0, []byte(", grown"))
	spliced := func(ts types.TS, base types.Pair, e *types.Edit) types.Message {
		return types.Message{Kind: types.MsgPreWrite, Flags: types.FlagSplice, Have: named(base),
			Pair: types.Pair{TS: ts, Val: e.Value(len(base.Val))}}
	}
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
		// Instance 7's shared register holds pw = (5.2, "table") from ID 3.
		{ID: 8, From: types.WriterID(2), Epoch: 4, Reg: 7, Msg: ref(types.MsgWrite, mw(5, 2, "table"))},
		{ID: 9, From: types.WriterID(2), Epoch: 4, Reg: 7, Msg: spliced(types.TS{Seq: 6, WID: 2}, mw(5, 2, "table"), &swap)},
		{ID: 10, From: types.WriterID(1), Epoch: 4, Reg: 7, Msg: spliced(types.TS{Seq: 7, WID: 1}, mw(6, 2, "tab1e"), &grow)},
		{ID: 11, From: types.WriterID(1), Epoch: 4, Reg: 7, Msg: ref(types.MsgWrite, mw(7, 1, "tab1e, grown"))},
		{ID: 12, From: types.Reader(3), Reg: 7, Msg: bundle(
			types.SubMsg{Reg: types.ReaderReg(3), Msg: types.Message{Kind: types.MsgPreWrite, Pair: pair(3, "7.1|x")}})},
		{ID: 13, From: types.Reader(3), Reg: 7, Msg: bundle(
			types.SubMsg{Reg: types.ReaderReg(3), Msg: ref(types.MsgWrite, pair(3, "7.1|x"))})},
		// Refused when they arrived, refused again on replay.
		{ID: 14, From: types.Writer, Reg: 0, Msg: ref(types.MsgWrite, pair(2, "never prewritten"))},
		{ID: 15, From: types.Writer, Reg: 0, Msg: ref(types.MsgWrite, pair(1, "not a"))},
		{ID: 16, From: types.Writer, Reg: 0, Msg: spliced(types.At(3), pair(2, "never prewritten"), &swap)},
		// Instance 2's shared register holds w = (9.1, "s2") from ID 7, pw ⊥.
		{ID: 17, From: types.Reader(2), Reg: 2, Msg: ref(types.MsgPreWrite, mw(9, 1, "s2"))},
		{ID: 18, From: types.Reader(2), Reg: 2, Msg: ref(types.MsgWrite, mw(9, 1, "s2"))},
	}
}

// copyLogs copies the fixture's log files into a fresh directory: Open starts
// a new generation in the directory it is given.
func copyLogs(t *testing.T, from string) (dir string, paths []string) {
	t.Helper()
	dir = t.TempDir()
	logs, err := filepath.Glob(filepath.Join(from, "wal-*"+walSuffix))
	if err != nil || len(logs) == 0 {
		t.Fatalf("no fixture log in %s (%v)", from, err)
	}
	for _, path := range logs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, filepath.Join(dir, filepath.Base(path)))
		if err := os.WriteFile(paths[len(paths)-1], data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir, paths
}

// TestRefusesParentWAL: the log an object of wire generation 0x06 left
// behind after a kill -9 is refused with ErrFormat — writing a read's result
// back into the shared register bumped the generation and kept no
// read-compat — and left untouched; the snapshot that binary wrote on SIGTERM
// (storaged compacts then) still loads, which is the upgrade path.
func TestRefusesParentWAL(t *testing.T) {
	dir, paths := copyLogs(t, parentWALDir)
	before, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	e, err := Open(dir, Options{Mode: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Recover(); !errors.Is(err, ErrFormat) || !errors.Is(err, wire.ErrVersion) {
		t.Fatalf("Recover of a generation-0x06 log = %v, want ErrFormat wrapping wire.ErrVersion", err)
	}
	e.Close()
	if after, err := os.ReadFile(paths[0]); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("refused log was modified (err %v, %d → %d bytes)", err, len(before), len(after))
	}

	snap, err := os.ReadFile(filepath.Join(parentWALDir, "state.snap"))
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	if err := writeSnapshotFile(snapPath(dir, 2), snap); err != nil {
		t.Fatal(err)
	}
	e, stores := open(t, dir, Options{Mode: FsyncOff})
	defer e.Close()
	if got, err := server.EncodeStores(stores); err != nil || !bytes.Equal(got, snap) {
		t.Errorf("state booted from the parent's snapshot re-encodes differently (err %v)", err)
	}
	if st := stores[7].Reg(types.WriterReg); st.W.TS != (types.TS{Seq: 7, WID: 1}) || st.W.Val != "tab1e, grown" {
		t.Errorf("instance 7, shared register: %+v", st)
	}
}

// TestReplaysGenerationWAL: a write-ahead log of this wire generation, as the
// commit that introduced it left it behind after a kill -9 (testdata, with
// the state THAT binary replayed it to), replays to the same register state
// under this one — a record is a wire frame, and neither the frame nor what
// the object does with one moved. Conditioned frames included: each replays
// against the state recovered so far, a refused one as the same refusal.
func TestReplaysGenerationWAL(t *testing.T) {
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
	dir, _ := copyLogs(t, walFixtureDir)
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
		t.Errorf("replayed state differs from the state its writer replayed this log to:\n got %x\nwant %x", got, want)
	}
	// And it is the state the requests describe, not merely an equal one.
	if w := stores[7].Reg(types.ReaderReg(3)).W; w != pair(3, "7.1|x") {
		t.Errorf("instance 7, reader 3's write-back register: w = %v", w)
	}
	if st := stores[7].Reg(types.WriterReg); st.W.TS != (types.TS{Seq: 7, WID: 1}) || st.W.Val != "tab1e, grown" || st.PW != st.W {
		t.Errorf("instance 7, shared register (reference, splice off w, splice off pw, reference): %+v", st)
	}
	if st := stores[2].Reg(types.WriterReg); st.W.Val != "s2" || st.PW != st.W {
		t.Errorf("instance 2, shared register (a write-back off w): %+v", st)
	}
	if st := stores[0].Reg(types.WriterReg); st.W != pair(1, "a") || st.PW != pair(1, "a") {
		t.Errorf("instance 0, shared register after three refused frames: %+v", st)
	}
}

// conditionedLog is three writes of one register as a client on a framed link
// sends them to an object in step with it: the first PREWRITE carries its
// value, every later one the edit that derives its value from the pair
// before, every WRITE a reference. states[k] is the register after the first
// k records, as the unconditioned writes would leave it.
func conditionedLog(t *testing.T) (reqs []wire.Request, states []server.RegState) {
	t.Helper()
	model := server.NewStore()
	states = append(states, model.Reg(types.WriterReg))
	log := func(cond, full types.Message) {
		reqs = append(reqs, wire.Request{From: types.WriterID(1), Epoch: 2, Reg: 3, Msg: cond})
		model.Handle(types.WriterID(1), full)
		states = append(states, model.Reg(types.WriterReg))
	}
	var prev types.Pair
	for seq, val := range []string{"the first table", "the First table", "the First table, grown"} {
		p := types.Pair{TS: types.TS{Seq: int64(seq + 1), WID: 1}, Val: types.Value(val)}
		pre := types.Message{Kind: types.MsgPreWrite, Pair: p}
		cond := pre
		if seq > 0 {
			var e types.Edit
			if seq == 1 {
				e.Splice(4, 1, []byte("F"))
			} else {
				e.Splice(len(prev.Val), 0, []byte(", grown"))
			}
			cond = types.Message{Kind: types.MsgPreWrite, Flags: types.FlagSplice, Pair: types.Pair{TS: p.TS, Val: e.Value(len(prev.Val))},
				Have: []types.Have{{TS: prev.TS, Digest: prev.Val.Digest()}}}
		}
		log(cond, pre)
		log(types.Message{Kind: types.MsgWrite, Pair: types.Pair{TS: p.TS}, Have: []types.Have{{TS: p.TS, Digest: p.Val.Digest()}}},
			types.Message{Kind: types.MsgWrite, Pair: p})
		prev = p
	}
	return reqs, states
}

// TestConditionedLogTornAtEveryOffset: a log of conditioned frames cut at
// every byte boundary, as a crash mid-write(2) could, recovers exactly the
// state of its complete records — each reference and each edit replayed
// against the state recovered so far, which is the state it was first
// applied to.
func TestConditionedLogTornAtEveryOffset(t *testing.T) {
	reqs, states := conditionedLog(t)
	var file []byte
	var ends []int
	for _, req := range reqs {
		file = append(file, frameRecord(wireFrame(t, req))...)
		ends = append(ends, len(file))
	}
	if len(file) > 400 {
		t.Errorf("six conditioned records of a 22-byte value take %d bytes", len(file))
	}
	for cut := 0; cut <= len(file); cut++ {
		complete := 0
		for _, end := range ends {
			if end <= cut {
				complete++
			}
		}
		dir := t.TempDir()
		if err := os.WriteFile(walPath(dir, 1), file[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		e, stores := open(t, dir, Options{Mode: FsyncOff})
		var got server.RegState
		if st := stores[3]; st != nil {
			got = st.Reg(types.WriterReg)
		}
		if want := states[complete]; e.Records() != int64(complete) || got.PW != want.PW || got.W != want.W {
			t.Fatalf("cut at %d of %d: %d records, state %v / %v; want %d records, %v / %v", cut, len(file), e.Records(), got.PW, got.W, complete, want.PW, want.W)
		}
		e.Close()
	}
}

// TestReferenceWithoutItsPrewriteReplaysAsRefusal: the second write's
// PREWRITE never made it into the log (the object was cut off; the writer
// crashed between its phases — the paper's writer-crash case). Everything
// conditioned on it — its WRITE by reference, the next PREWRITE's edit of it,
// that one's WRITE — was refused when it arrived and is refused again on
// replay: the register recovers to the first write, never to a guess.
func TestReferenceWithoutItsPrewriteReplaysAsRefusal(t *testing.T) {
	reqs, states := conditionedLog(t)
	dir := t.TempDir()
	e, _ := open(t, dir, Options{Mode: FsyncOff})
	for i, req := range reqs {
		if i == 2 {
			continue
		}
		if err := e.Append(req); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	e, stores := open(t, dir, Options{Mode: FsyncOff})
	defer e.Close()
	if got, want := stores[3].Reg(types.WriterReg), states[2]; e.Records() != 5 || got.PW != want.PW || got.W != want.W {
		t.Fatalf("replayed %d records to %v / %v; want 5 records and the first write's %v / %v", e.Records(), got.PW, got.W, want.PW, want.W)
	}
}

// tapLog is an Engine that tells a test when a record has been written: the
// moment another connection's request can be logged right behind it.
type tapLog struct {
	*Engine
	written func(wire.Request)
}

func (l tapLog) Write(req wire.Request) error {
	err := l.Engine.Write(req)
	if err == nil {
		l.written(req)
	}
	return err
}

// TestConcurrentConnectionsReplayToTheLiveState: a conditioned write applies
// or refuses by the state it meets, so the order the log holds must be the
// order the object applied (server.TestServeAppliesInLogOrder pins the one
// interleaving; this runs the real engine, group commit and compaction under
// it, for -race). Connections race at an object under FsyncAlways, where
// records wait out a shared fsync between write(2) and apply: one sends each
// register's PREWRITE in full; the moment its record is written, another logs
// that pair's WRITE by reference and an edit of it behind it; a third keeps
// fsyncs in flight and compacts. Every write logged behind its pair's
// PREWRITE applies, and a kill -9 recovers — from the last snapshot and the
// log behind it — every register to exactly what the object held.
func TestConcurrentConnectionsReplayToTheLiveState(t *testing.T) {
	const regs = 150
	dir := t.TempDir()
	e, err := Open(dir, Options{Mode: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	chase := make(chan int, regs)
	h, err := server.NewHost(1, tapLog{e, func(req wire.Request) {
		if req.From == types.WriterID(1) {
			chase <- req.Reg
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	at := func(reg int) types.Pair {
		return types.Pair{TS: types.TS{Seq: 1, WID: 1}, Val: types.Value(fmt.Sprintf("register %d's table", reg))}
	}
	serve := func(from types.ProcID, reg int, msg types.Message) {
		h.Serve(wire.Request{From: from, Reg: reg, Msg: msg})
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(3)
	go func() {
		defer wg.Done()
		defer close(chase)
		for reg := 1; reg <= regs; reg++ {
			serve(types.WriterID(1), reg, types.Message{Kind: types.MsgPreWrite, Pair: at(reg)})
		}
	}()
	go func() {
		defer wg.Done()
		defer close(done)
		for reg := range chase {
			p := at(reg)
			held := []types.Have{{TS: p.TS, Digest: p.Val.Digest()}}
			var edit types.Edit
			edit.Splice(0, 1, []byte("R"))
			serve(types.WriterID(2), reg, types.Message{Kind: types.MsgWrite, Pair: types.Pair{TS: p.TS}, Have: held})
			serve(types.WriterID(2), reg, types.Message{Kind: types.MsgPreWrite, Flags: types.FlagSplice,
				Pair: types.Pair{TS: types.TS{Seq: 2, WID: 2}, Val: edit.Value(len(p.Val))}, Have: held})
		}
	}()
	go func() {
		defer wg.Done()
		for seq := int64(1); ; seq++ {
			select {
			case <-done:
				return
			default:
				serve(types.WriterID(3), 0, types.Message{Kind: types.MsgWrite, Pair: pair(seq, "elsewhere")})
				if seq%16 == 0 {
					if err := h.Compact(); err != nil {
						t.Error(err)
					}
				}
			}
		}
	}()
	wg.Wait()
	live := make([]server.RegState, regs+1)
	for reg := 1; reg <= regs; reg++ {
		live[reg] = h.Store(reg).Reg(types.WriterReg)
		if p := at(reg); live[reg].W != p || live[reg].PW.TS != (types.TS{Seq: 2, WID: 2}) {
			t.Errorf("register %d: a write logged behind its pair's PREWRITE was refused: the object holds pw=%v w=%v", reg, live[reg].PW.TS, live[reg].W.TS)
		}
	}
	// kill -9: no Close — the last snapshot and the log behind it are all there is.
	e2, stores := open(t, dir, Options{Mode: FsyncOff})
	defer e2.Close()
	for reg := 1; reg <= regs; reg++ {
		if got := stores[reg].Reg(types.WriterReg); got.PW != live[reg].PW || got.W != live[reg].W {
			t.Errorf("register %d recovered to pw=%v w=%v, the object held pw=%v w=%v", reg, got.PW.TS, got.W.TS, live[reg].PW.TS, live[reg].W.TS)
		}
	}
}
