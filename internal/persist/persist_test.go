package persist

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"robustatomic/internal/server"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

func pair(ts int64, v string) types.Pair { return types.Pair{TS: types.At(ts), Val: types.Value(v)} }

func writeReq(reg int, ts int64, v string) wire.Request {
	return wire.Request{
		From: types.Writer,
		Reg:  reg,
		Msg:  types.Message{Kind: types.MsgWrite, Pair: pair(ts, v)},
	}
}

// open opens an engine and recovers it, failing the test on error.
func open(t *testing.T, dir string, o Options) (*Engine, map[int]*server.Store) {
	t.Helper()
	e, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	stores, err := e.Recover()
	if err != nil {
		t.Fatal(err)
	}
	return e, stores
}

// newestWAL returns the path of the highest-generation WAL file.
func newestWAL(t *testing.T, dir string) string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*"+walSuffix))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no wal files in %s (%v)", dir, err)
	}
	sort.Strings(paths)
	return paths[len(paths)-1]
}

func TestParseFsyncMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncMode
	}{{"always", FsyncAlways}, {"batch", FsyncBatch}, {"", FsyncBatch}, {"off", FsyncOff}} {
		got, err := ParseFsyncMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseFsyncMode(%q) = %v, %v", tc.in, got, err)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Errorf("String() = %q, want %q", got, tc.in)
		}
	}
	if _, err := ParseFsyncMode("sometimes"); err == nil {
		t.Error("bogus mode accepted")
	}
}

func TestRecoverEmptyDir(t *testing.T) {
	e, stores := open(t, t.TempDir(), Options{})
	defer e.Close()
	if len(stores) != 0 {
		t.Errorf("fresh dir recovered %d instances", len(stores))
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	for _, mode := range []FsyncMode{FsyncAlways, FsyncBatch, FsyncOff} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			e, _ := open(t, dir, Options{Mode: mode})
			for reg := 0; reg < 3; reg++ {
				for ts := int64(1); ts <= 5; ts++ {
					if err := e.Append(writeReq(reg, ts, fmt.Sprintf("r%d-v%d", reg, ts))); err != nil {
						t.Fatal(err)
					}
				}
			}
			// A mux record exercises the nested-message path.
			if err := e.Append(wire.Request{From: types.Reader(2), Reg: 1, Msg: types.Message{
				Kind: types.MsgMux,
				Sub: []types.SubMsg{{Reg: types.ReaderReg(2), Msg: types.Message{
					Kind: types.MsgWriteBack, Pair: pair(9, "wb"),
				}}},
			}}); err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}

			e2, stores := open(t, dir, Options{Mode: mode})
			defer e2.Close()
			if len(stores) != 3 {
				t.Fatalf("recovered %d instances, want 3", len(stores))
			}
			for reg := 0; reg < 3; reg++ {
				got := stores[reg].Reg(types.WriterReg).W
				if want := pair(5, fmt.Sprintf("r%d-v5", reg)); got != want {
					t.Errorf("instance %d: W = %v, want %v", reg, got, want)
				}
			}
			if got := stores[1].Reg(types.ReaderReg(2)).W; got != pair(9, "wb") {
				t.Errorf("mux record not replayed: %v", got)
			}
			if e2.Records() != 16 {
				t.Errorf("Records() = %d, want 16", e2.Records())
			}
		})
	}
}

// TestCrashWithoutCloseRecovers abandons the engine (no Close, no final
// fsync) the way a killed process would: every acknowledged append must
// still replay, because records are written to the OS before Append
// returns in every mode.
func TestCrashWithoutCloseRecovers(t *testing.T) {
	dir := t.TempDir()
	e, _ := open(t, dir, Options{Mode: FsyncOff})
	for ts := int64(1); ts <= 20; ts++ {
		if err := e.Append(writeReq(0, ts, "v")); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: the process "dies" here.
	e2, stores := open(t, dir, Options{})
	defer e2.Close()
	if got := stores[0].Reg(types.WriterReg).W; got != pair(20, "v") {
		t.Errorf("recovered W = %v, want %v", got, pair(20, "v"))
	}
}

// TestTornTailTruncated damages the newest generation's tail the way a
// crash mid-write(2) would, and verifies replay keeps every intact record
// and drops the torn one.
func TestTornTailTruncated(t *testing.T) {
	for _, damage := range []struct {
		name string
		op   func(data []byte) []byte
	}{
		{"truncated-frame", func(d []byte) []byte { return d[:len(d)-3] }},
		{"flipped-crc", func(d []byte) []byte { d[len(d)-1] ^= 0xff; return d }},
		{"garbage-tail", func(d []byte) []byte { return append(d, 0xde, 0xad) }},
	} {
		t.Run(damage.name, func(t *testing.T) {
			dir := t.TempDir()
			e, _ := open(t, dir, Options{Mode: FsyncOff})
			for ts := int64(1); ts <= 8; ts++ {
				if err := e.Append(writeReq(0, ts, "v")); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			path := newestWAL(t, dir)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, damage.op(data), 0o644); err != nil {
				t.Fatal(err)
			}
			e2, stores := open(t, dir, Options{})
			defer e2.Close()
			got := stores[0].Reg(types.WriterReg).W
			switch damage.name {
			case "garbage-tail":
				if got != pair(8, "v") {
					t.Errorf("W = %v, want all 8 records", got)
				}
			default:
				if got != pair(7, "v") {
					t.Errorf("W = %v, want the 7 intact records", got)
				}
			}
		})
	}
}

// TestTornTailTruncatedOnDisk pins the follow-up restart: tolerating a
// torn tail must also repair the file on disk, because after the next
// lifetime appends a newer generation, the torn one is no longer newest
// and un-truncated damage would read as fatal corruption — one crash plus
// two restarts must not brick the daemon.
func TestTornTailTruncatedOnDisk(t *testing.T) {
	dir := t.TempDir()
	e, _ := open(t, dir, Options{Mode: FsyncOff})
	for ts := int64(1); ts <= 5; ts++ {
		if err := e.Append(writeReq(0, ts, "v")); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	path := newestWAL(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	// Lifetime 2 tolerates the tear and writes a newer generation.
	e2, stores := open(t, dir, Options{Mode: FsyncOff})
	if got := stores[0].Reg(types.WriterReg).W; got != pair(4, "v") {
		t.Fatalf("lifetime 2: W = %v, want the 4 intact records", got)
	}
	if err := e2.Append(writeReq(0, 9, "newer-gen")); err != nil {
		t.Fatal(err)
	}
	e2.Close()
	// Lifetime 3: the once-torn file is no longer the newest generation;
	// it must replay cleanly because lifetime 2 truncated it.
	e3, rec := open(t, dir, Options{Mode: FsyncOff})
	defer e3.Close()
	if got := rec[0].Reg(types.WriterReg).W; got != pair(9, "newer-gen") {
		t.Fatalf("lifetime 3: W = %v, want both generations replayed", got)
	}
}

// TestAppendLatchesAfterWriteFailure: once a WAL write fails, a partial
// frame may sit mid-file; further appends must refuse rather than land
// acked records after the damage (replay would silently drop them).
func TestAppendLatchesAfterWriteFailure(t *testing.T) {
	e, _ := open(t, t.TempDir(), Options{Mode: FsyncOff})
	defer e.Close()
	if err := e.Append(writeReq(0, 1, "v")); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	e.f.Close() // simulate the disk failing out from under the engine
	e.mu.Unlock()
	if err := e.Append(writeReq(0, 2, "v")); err == nil {
		t.Fatal("append to failed file succeeded")
	}
	err := e.Append(writeReq(0, 3, "v"))
	if err == nil {
		t.Fatal("append after failure succeeded")
	}
	if !strings.Contains(err.Error(), "latched") {
		t.Errorf("failure not latched: %v", err)
	}
}

// TestCorruptOlderGenerationRefused: damage anywhere but the newest
// generation means unreachable acknowledged records; recovery must refuse
// rather than silently regress.
func TestCorruptOlderGenerationRefused(t *testing.T) {
	dir := t.TempDir()
	e, _ := open(t, dir, Options{Mode: FsyncOff})
	for ts := int64(1); ts <= 4; ts++ {
		if err := e.Append(writeReq(0, ts, "v")); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	older := newestWAL(t, dir)
	// A second lifetime writes a newer generation.
	e2, _ := open(t, dir, Options{Mode: FsyncOff})
	if err := e2.Append(writeReq(0, 5, "v")); err != nil {
		t.Fatal(err)
	}
	e2.Close()
	data, err := os.ReadFile(older)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(older, data, 0o644); err != nil {
		t.Fatal(err)
	}
	e3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	if _, err := e3.Recover(); err == nil {
		t.Fatal("recovery accepted a corrupt older generation")
	}
}

func TestCompactionPrunesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	e, stores := open(t, dir, Options{Mode: FsyncOff})
	for ts := int64(1); ts <= 6; ts++ {
		req := writeReq(2, ts, fmt.Sprintf("v%d", ts))
		if err := e.Append(req); err != nil {
			t.Fatal(err)
		}
		if stores[2] == nil {
			stores[2] = server.NewStore()
		}
		stores[2].Handle(req.From, req.Msg)
	}
	// Compaction cycle: rotate, snapshot the (quiesced) state, commit under
	// the rotated generation.
	gen, err := e.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := server.EncodeStores(stores)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(gen, snap); err != nil {
		t.Fatal(err)
	}
	// Records after the cycle land in the new generation and survive too.
	if err := e.Append(writeReq(2, 7, "v7")); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// The sealed pre-compaction generation must be pruned.
	walPaths, _ := filepath.Glob(filepath.Join(dir, "wal-*"+walSuffix))
	if len(walPaths) != 1 {
		t.Errorf("wal files after compaction = %v, want just the live generation", walPaths)
	}
	e2, rec := open(t, dir, Options{})
	defer e2.Close()
	if got := rec[2].Reg(types.WriterReg).W; got != pair(7, "v7") {
		t.Errorf("post-compaction recovery W = %v, want (7,v7)", got)
	}
}

// TestCrashMidCompaction covers the two crash windows of a compaction
// cycle: after Rotate but before Commit (both generations replay), and a
// torn snapshot temp file (ignored; the WAL generations still replay).
func TestCrashMidCompaction(t *testing.T) {
	t.Run("after-rotate-before-commit", func(t *testing.T) {
		dir := t.TempDir()
		e, _ := open(t, dir, Options{Mode: FsyncOff})
		if err := e.Append(writeReq(0, 1, "old-gen")); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Rotate(); err != nil {
			t.Fatal(err)
		}
		if err := e.Append(writeReq(0, 2, "new-gen")); err != nil {
			t.Fatal(err)
		}
		// Crash before Commit: no snapshot written, both generations remain.
		e2, stores := open(t, dir, Options{})
		defer e2.Close()
		if got := stores[0].Reg(types.WriterReg).W; got != pair(2, "new-gen") {
			t.Errorf("W = %v, want both generations replayed in order", got)
		}
	})
	t.Run("torn-snapshot-tmp", func(t *testing.T) {
		dir := t.TempDir()
		e, _ := open(t, dir, Options{Mode: FsyncOff})
		if err := e.Append(writeReq(0, 1, "v")); err != nil {
			t.Fatal(err)
		}
		e.Close()
		tmp := snapPath(dir, 99) + tmpSuffix
		if err := os.WriteFile(tmp, []byte("half-written snapsh"), 0o644); err != nil {
			t.Fatal(err)
		}
		e2, stores := open(t, dir, Options{})
		defer e2.Close()
		if got := stores[0].Reg(types.WriterReg).W; got != pair(1, "v") {
			t.Errorf("W = %v after tmp-file cleanup", got)
		}
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Error("crashed snapshot tmp file not cleaned up")
		}
	})
	t.Run("corrupt-snapshot-refused", func(t *testing.T) {
		dir := t.TempDir()
		e, stores := open(t, dir, Options{Mode: FsyncOff})
		req := writeReq(0, 1, "v")
		if err := e.Append(req); err != nil {
			t.Fatal(err)
		}
		stores[0] = server.NewStore()
		stores[0].Handle(req.From, req.Msg)
		gen, err := e.Rotate()
		if err != nil {
			t.Fatal(err)
		}
		snap, _ := server.EncodeStores(stores)
		if err := e.Commit(gen, snap); err != nil {
			t.Fatal(err)
		}
		if err := e.Append(writeReq(0, 2, "w")); err != nil {
			t.Fatal(err)
		}
		e.Close()
		// Rot the committed snapshot: the WAL generations it covered are
		// pruned, so booting from the surviving suffix would silently
		// regress acknowledged state. Open must refuse (the operator
		// reconstitutes from a live quorum instead).
		snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*"+snapSuffix))
		if len(snaps) != 1 {
			t.Fatalf("snapshots = %v", snaps)
		}
		data, _ := os.ReadFile(snaps[0])
		data[0] ^= 0xff
		os.WriteFile(snaps[0], data, 0o644)
		if _, err := Open(dir, Options{}); err == nil {
			t.Fatal("Open accepted a data dir whose every snapshot is corrupt")
		}
	})
}

// TestGroupCommitConcurrentAppends hammers FsyncAlways from many
// goroutines (run with -race): every acknowledged append must replay, and
// the group-commit leader handoff must not lose or duplicate records.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	e, _ := open(t, dir, Options{Mode: FsyncAlways})
	const goroutines, perG = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= perG; i++ {
				if err := e.Append(writeReq(g, int64(i), fmt.Sprintf("g%d-%d", g, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, stores := open(t, dir, Options{})
	defer e2.Close()
	if e2.Records() != goroutines*perG {
		t.Errorf("replayed %d records, want %d", e2.Records(), goroutines*perG)
	}
	for g := 0; g < goroutines; g++ {
		if got := stores[g].Reg(types.WriterReg).W; got != pair(perG, fmt.Sprintf("g%d-%d", g, perG)) {
			t.Errorf("instance %d: W = %v", g, got)
		}
	}
}

// TestScalarTimestampWALRefused: a WAL generation written before multi-writer
// timestamps (gob records whose Pair.TS is a scalar — intact frames, another
// record format) is refused with ErrFormat and left untouched on disk; it
// must neither decode as something else nor be truncated away as a torn tail.
func TestScalarTimestampWALRefused(t *testing.T) {
	type oldPair struct {
		TS  int64
		Val types.Value
	}
	type oldMessage struct {
		Kind types.MsgKind
		Pair oldPair
	}
	type oldRequest struct {
		From types.ProcID
		Reg  int
		Msg  oldMessage
	}
	var stream bytes.Buffer
	enc := gob.NewEncoder(&stream)
	var file []byte
	for ts := int64(1); ts <= 3; ts++ {
		stream.Reset()
		if err := enc.Encode(oldRequest{From: types.Writer, Msg: oldMessage{Kind: types.MsgWrite, Pair: oldPair{TS: ts, Val: "old"}}}); err != nil {
			t.Fatal(err)
		}
		file = appendFrame(file, stream.Bytes())
	}
	dir := t.TempDir()
	path := walPath(dir, 1)
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := Open(dir, Options{Mode: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Recover(); !errors.Is(err, ErrFormat) {
		t.Fatalf("Recover over a scalar-timestamp WAL: err = %v, want ErrFormat", err)
	}
	if kept, err := os.ReadFile(path); err != nil || !bytes.Equal(kept, file) {
		t.Fatalf("refused generation was modified on disk (err %v, %d → %d bytes)", err, len(file), len(kept))
	}
}

func TestAppendBeforeRecoverRefused(t *testing.T) {
	e, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Append(writeReq(0, 1, "v")); err == nil {
		t.Fatal("Append before Recover accepted")
	}
	if _, err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Recover(); err == nil {
		t.Fatal("second Recover accepted")
	}
}
