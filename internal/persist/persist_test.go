package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
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

// frameRecord frames payload as one WAL record, written out independently of
// buildRecord: uvarint length | payload | CRC32 (IEEE, little-endian).
func frameRecord(payload []byte) []byte {
	rec := binary.AppendUvarint(nil, uint64(len(payload)))
	rec = append(rec, payload...)
	return binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
}

// splitRecords walks a WAL file's intact records, independently of cutRecord,
// returning each payload and the offset at which each record ends.
func splitRecords(data []byte) (payloads [][]byte, ends []int) {
	off := 0
	for {
		n, w := binary.Uvarint(data[off:])
		end := off + w + int(n) + 4
		if w <= 0 || n == 0 || n > uint64(len(data)) || end > len(data) {
			return payloads, ends
		}
		payload := data[off+w : end-4]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[end-4:]) {
			return payloads, ends
		}
		payloads, ends = append(payloads, payload), append(ends, end)
		off = end
	}
}

// wireFrame is what a wire.Encoder writes for req.
func wireFrame(t testing.TB, req wire.Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.NewEncoder(&buf).EncodeRequest(req); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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
		{"zero-filled-tail", func(d []byte) []byte { return append(d, make([]byte, 64)...) }},
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
			case "garbage-tail", "zero-filled-tail":
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
	t.Run("every-offset", tornAtEveryOffset)
}

// tornAtEveryOffset (TestTornTailTruncated/every-offset) cuts a 3-record
// generation at every byte offset, as a crash mid-write(2) could: recovery
// applies exactly the complete records, truncates the file to that boundary,
// and the next lifetime — in which the once-torn generation is no longer the
// newest — replays clean.
func tornAtEveryOffset(t *testing.T) {
	var file []byte
	for ts := int64(1); ts <= 3; ts++ {
		file = append(file, frameRecord(wireFrame(t, writeReq(0, ts, strings.Repeat("v", int(ts)*40))))...)
	}
	_, ends := splitRecords(file)
	if len(ends) != 3 || ends[2] != len(file) {
		t.Fatalf("record boundaries = %v in a %d-byte file", ends, len(file))
	}
	for cut := 0; cut <= len(file); cut++ {
		complete, boundary := 0, 0
		for _, end := range ends {
			if end <= cut {
				complete, boundary = complete+1, end
			}
		}
		dir := t.TempDir()
		path := walPath(dir, 1)
		if err := os.WriteFile(path, file[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		e, stores := open(t, dir, Options{Mode: FsyncOff})
		if got := e.Records(); got != int64(complete) {
			t.Fatalf("cut at %d: recovered %d records, want %d", cut, got, complete)
		}
		if complete > 0 && stores[0].Reg(types.WriterReg).W.TS != types.At(int64(complete)) {
			t.Fatalf("cut at %d: W = %v, want timestamp %d", cut, stores[0].Reg(types.WriterReg).W, complete)
		}
		// Open drops a generation that is empty to begin with; any other ends
		// at its last complete record now.
		if cut > 0 {
			if fi, err := os.Stat(path); err != nil || fi.Size() != int64(boundary) {
				t.Fatalf("cut at %d: file after recovery: %v, %v; want %d bytes", cut, fi, err, boundary)
			}
		}
		if err := e.Append(writeReq(0, 9, "next-lifetime")); err != nil {
			t.Fatal(err)
		}
		e.Close()
		e2, rec := open(t, dir, Options{Mode: FsyncOff})
		if got := e2.Records(); got != int64(complete+1) || rec[0].Reg(types.WriterReg).W != pair(9, "next-lifetime") {
			t.Fatalf("cut at %d: next lifetime replayed %d records, W = %v", cut, got, rec[0].Reg(types.WriterReg).W)
		}
		e2.Close()
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

// TestGobStreamWALRefused: what every data directory written before the log
// moved to wire frames holds — a generation whose record payloads form one gob
// stream of wire.Request — is refused with ErrFormat and left untouched on
// disk; it must neither decode as something else nor be truncated away as a
// torn tail.
func TestGobStreamWALRefused(t *testing.T) {
	var stream bytes.Buffer
	enc := gob.NewEncoder(&stream)
	var file []byte
	for ts := int64(1); ts <= 3; ts++ {
		stream.Reset()
		if err := enc.Encode(writeReq(0, ts, "old")); err != nil {
			t.Fatal(err)
		}
		file = append(file, frameRecord(stream.Bytes())...)
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
	if _, err := e.Recover(); !errors.Is(err, ErrFormat) || !errors.Is(err, wire.ErrVersion) {
		t.Fatalf("Recover over a gob-stream WAL: err = %v, want ErrFormat wrapping wire.ErrVersion", err)
	}
	if kept, err := os.ReadFile(path); err != nil || !bytes.Equal(kept, file) {
		t.Fatalf("refused generation was modified on disk (err %v, %d → %d bytes)", err, len(file), len(kept))
	}
}

// TestIntactUndecodableRecordRefusedNotTruncated: a record whose CRC holds but
// which does not decode is not a torn tail, at any position of any
// generation — truncating there would cut every acknowledged record after it
// off and report success. Recovery refuses with ErrFormat and leaves the file
// byte-identical.
func TestIntactUndecodableRecordRefusedNotTruncated(t *testing.T) {
	foreign := wireFrame(t, writeReq(0, 3, "v"))
	foreign[0] ^= 0xff // another generation's header byte
	for _, tc := range []struct {
		name    string
		before  int // good records ahead of the bad one
		payload []byte
		version bool // the refusal wraps wire.ErrVersion
	}{
		{"garbage-after-records", 2, []byte("an intact frame that is no record"), true},
		{"foreign-generation-after-records", 2, foreign, true},
		{"malformed-frame-after-records", 2, []byte{0x07, 2, 0xff, 0xff}, false},
		{"garbage-first", 0, []byte("an intact frame that is no record"), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			e, _ := open(t, dir, Options{Mode: FsyncOff})
			for ts := int64(1); ts <= int64(tc.before); ts++ {
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
			// The bad record, then one more acknowledged record behind it.
			good := data[:len(data)/max(tc.before, 1)]
			data = append(append(data, frameRecord(tc.payload)...), good...)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			e2, err := Open(dir, Options{Mode: FsyncOff})
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			if _, err := e2.Recover(); !errors.Is(err, ErrFormat) || errors.Is(err, wire.ErrVersion) != tc.version {
				t.Fatalf("Recover = %v, want ErrFormat (wrapping wire.ErrVersion: %v)", err, tc.version)
			}
			if kept, err := os.ReadFile(path); err != nil || !bytes.Equal(kept, data) {
				t.Fatalf("refused generation was modified on disk (err %v, %d → %d bytes)", err, len(data), len(kept))
			}
		})
	}
}

// TestWALRecordIsWireFrame: the log has no format of its own. The payload of
// an appended record is byte for byte what a wire.Encoder writes for the same
// request, and it replays through Recover.
func TestWALRecordIsWireFrame(t *testing.T) {
	table := types.Value(strings.Repeat("k=v;", 9<<10)) // a 36 KB shard table
	reqs := []wire.Request{
		{ID: 7, From: types.WriterID(2), Epoch: 3, Reg: 1, Msg: types.Message{Kind: types.MsgPreWrite, Seq: 4, Pair: pair(1, "single")}},
		{ID: 8, From: types.WriterID(2), Epoch: 3, Subs: []wire.SubReq{
			{Reg: 2, Msg: types.Message{Kind: types.MsgWrite, Pair: pair(2, "batch-a")}},
			{Reg: 3, Msg: types.Message{Kind: types.MsgWrite, Pair: pair(2, "batch-b")}},
		}},
		{ID: 9, From: types.WriterID(2), Epoch: 3, Reg: 4, Msg: types.Message{Kind: types.MsgWrite, Pair: types.Pair{TS: types.At(3), Val: table}}},
	}
	dir := t.TempDir()
	e, _ := open(t, dir, Options{Mode: FsyncOff})
	for _, req := range reqs {
		if err := e.Append(req); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(newestWAL(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.WALSize(); got != int64(len(data)) {
		t.Errorf("WALSize() = %d, the file holds %d bytes", got, len(data))
	}
	payloads, ends := splitRecords(data)
	if len(payloads) != len(reqs) || ends[len(ends)-1] != len(data) {
		t.Fatalf("file holds %d intact records ending at %v, want %d filling %d bytes", len(payloads), ends, len(reqs), len(data))
	}
	for i, req := range reqs {
		if want := wireFrame(t, req); !bytes.Equal(payloads[i], want) {
			t.Errorf("record %d payload differs from the wire frame (%d vs %d bytes)", i, len(payloads[i]), len(want))
		}
	}
	e.Close()
	e2, stores := open(t, dir, Options{})
	defer e2.Close()
	for reg, want := range map[int]types.Pair{2: pair(2, "batch-a"), 3: pair(2, "batch-b"), 4: {TS: types.At(3), Val: table}} {
		if got := stores[reg].Reg(types.WriterReg).W; got != want {
			t.Errorf("instance %d: recovered W = %.40v, want %.40v", reg, got, want)
		}
	}
	if got := stores[1].Reg(types.WriterReg).PW; got != pair(1, "single") {
		t.Errorf("instance 1: recovered PW = %v", got)
	}
}

// TestOversizeAppendRefusedNotLatched: an envelope no frame can carry refuses
// that one record with nothing written; the log takes the next one.
func TestOversizeAppendRefusedNotLatched(t *testing.T) {
	defer func(old int) { wire.MaxFrame = old }(wire.MaxFrame)
	wire.MaxFrame = 1 << 10
	dir := t.TempDir()
	e, _ := open(t, dir, Options{Mode: FsyncOff})
	if err := e.Append(writeReq(0, 1, strings.Repeat("x", 2<<10))); !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("oversize append: %v, want wire.ErrFrameTooLarge", err)
	}
	if e.WALSize() != 0 {
		t.Fatalf("refused record wrote %d bytes", e.WALSize())
	}
	if err := e.Append(writeReq(0, 2, "fits")); err != nil {
		t.Fatalf("append after a refused record: %v", err)
	}
	e.Close()
	e2, stores := open(t, dir, Options{})
	defer e2.Close()
	if got := stores[0].Reg(types.WriterReg).W; got != pair(2, "fits") || e2.Records() != 1 {
		t.Errorf("recovered W = %v from %d records, want (2,fits) from 1", got, e2.Records())
	}
}

// FuzzWALReplay recovers from arbitrary file bytes: it never panics, applies
// exactly the intact records ahead of the first damaged or undecodable one,
// truncates a tear to that boundary, and never modifies a file it refuses.
func FuzzWALReplay(f *testing.F) {
	var file []byte
	for ts := int64(1); ts <= 3; ts++ {
		file = append(file, frameRecord(wireFrame(f, writeReq(int(ts), ts, "seed")))...)
	}
	f.Add(file)
	f.Add(file[:len(file)-3])
	f.Add(append(append([]byte(nil), file...), frameRecord([]byte("not a frame"))...))
	f.Add(append(frameRecord([]byte{0x3f, 0xff, 0x81}), file...))
	f.Add(make([]byte, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := walPath(dir, 1)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// The expectation, from the independent walk: records parse until the
		// framing breaks (a tear) or an intact record does not (a refusal).
		payloads, ends := splitRecords(data)
		want, boundary, refused := 0, 0, false
		for i, payload := range payloads {
			if _, err := wire.ParseRequest(payload); err != nil {
				refused = true
				break
			}
			want, boundary = i+1, ends[i]
		}
		e, err := Open(dir, Options{Mode: FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		_, err = e.Recover()
		if refused {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("undecodable intact record: Recover = %v, want ErrFormat", err)
			}
			if kept, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(kept, data) {
				t.Fatalf("refused file was modified (err %v, %d → %d bytes)", rerr, len(data), len(kept))
			}
			return
		}
		if err != nil || e.Records() != int64(want) {
			t.Fatalf("Recover = %v with %d records applied, want %d", err, e.Records(), want)
		}
		if kept, rerr := os.ReadFile(path); len(data) > 0 && (rerr != nil || !bytes.Equal(kept, data[:boundary])) {
			t.Fatalf("file after recovery: err %v, %d bytes, want the %d-byte intact prefix", rerr, len(kept), boundary)
		}
	})
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
