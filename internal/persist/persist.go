// Package persist is the durability engine of a storage daemon: a
// write-ahead log plus snapshot/compaction machinery that makes every
// register instance a storage object hosts survive a crash or restart.
//
// The paper's resilience guarantee (wait-free atomicity over S = 3t+1
// objects, t Byzantine) silently assumes object state survives between
// rounds. Without durability, an honest daemon restart is indistinguishable
// from a Byzantine amnesia fault and permanently burns the fault budget;
// with it, a restarted daemon resumes exactly where it crashed and is merely
// slow — which asynchrony already accounts for.
//
// # On-disk layout
//
// A data directory holds numbered generations:
//
//	wal-<gen>.log    framed records, each one wire frame (see wal.go)
//	snap-<gen>.snap  state snapshot + CRC32 trailer, covering every
//	                 generation before <gen>
//
// Every Open starts a fresh WAL generation, so the only file a crash can
// have torn is the newest one: recovery loads the newest intact snapshot and
// replays all WAL generations at or after it, in order, truncating a torn
// tail in the newest and refusing damage anywhere else. Compaction (Rotate +
// Commit) writes a new snapshot with an atomic rename and then prunes every
// older generation; a crash at any point between those steps recovers
// cleanly because the old snapshot and WAL files are only deleted after the
// new snapshot is durably in place.
//
// # Durability modes
//
// Every mode writes each record to the operating system before Append
// returns, so a killed *process* never loses an acknowledged write. The
// modes differ in when fsync makes records survive a killed *machine*:
// FsyncAlways group-commits (concurrent appends amortize one fsync, every
// append waits for it — the storeShard group-commit pattern applied to
// fsync), FsyncBatch syncs in the background every batchInterval (bounded
// loss window), FsyncOff leaves flushing to the OS entirely.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"robustatomic/internal/obs"
	"robustatomic/internal/server"
	"robustatomic/internal/shard"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

var _ server.Persister = (*Engine)(nil)

// Durability observability: append (the record's write(2), in every mode) and
// fsync latency distributions (µs, recorded unconditionally — both are
// I/O-bound, so the two time.Now calls vanish in the noise), plus volume
// counters. Engines are per-daemon but
// the metrics aggregate: a storaged process hosts one engine, and
// multi-engine test processes just sum.
var (
	mWALAppends     = obs.Default.Counter("persist_wal_appends_total")
	mWALBytes       = obs.Default.Counter("persist_wal_bytes_total")
	mWALAppendLat   = obs.Default.Hist("persist_wal_append_us")
	mWALFsyncs      = obs.Default.Counter("persist_fsyncs_total")
	mWALFsyncLat    = obs.Default.Hist("persist_fsync_us")
	mWALCompactions = obs.Default.Counter("persist_compactions_total")
	mEngines        = obs.Default.Counter("persist_engines_opened_total")
)

// FsyncMode selects when appended records are fsynced. The zero value is
// FsyncBatch, the production default.
type FsyncMode int

// Fsync modes.
const (
	// FsyncBatch writes each record to the OS synchronously and fsyncs in
	// the background every batchInterval: a machine crash can lose at most
	// the last interval's acknowledgements, a process crash loses nothing.
	FsyncBatch FsyncMode = iota
	// FsyncAlways fsyncs before Append returns. Concurrent appends share
	// one fsync (group commit), so the cost amortizes under load.
	FsyncAlways
	// FsyncOff never fsyncs on the append path (only on rotation and
	// close). Survives process crashes, not machine crashes.
	FsyncOff
)

// String implements fmt.Stringer.
func (m FsyncMode) String() string {
	switch m {
	case FsyncAlways:
		return "always"
	case FsyncBatch:
		return "batch"
	case FsyncOff:
		return "off"
	default:
		return "fsync(" + strconv.Itoa(int(m)) + ")"
	}
}

// ParseFsyncMode parses the -fsync flag vocabulary: always | batch | off.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "batch", "":
		return FsyncBatch, nil
	case "off":
		return FsyncOff, nil
	default:
		return 0, fmt.Errorf("persist: unknown fsync mode %q (want always | batch | off)", s)
	}
}

// Options configures an Engine.
type Options struct {
	// Mode is the fsync policy. Default FsyncBatch.
	Mode FsyncMode
}

// batchInterval is the background fsync period of FsyncBatch, and the bound
// on its loss window under a machine crash.
const batchInterval = 2 * time.Millisecond

// walFile locates one recovered WAL generation.
type walFile struct {
	gen  uint64
	path string
}

// Engine is the durability engine for one storage object's data directory.
// Append is safe for concurrent use. Recover must be called exactly once,
// before the first Append. Rotate and Commit must not race Append — the
// object host guarantees this by quiescing mutations around compaction
// (server.Host.Compact).
type Engine struct {
	dir  string
	mode FsyncMode

	// Recovery inputs, fixed at Open and consumed by Recover.
	baseGen  uint64
	baseSnap []byte // validated snapshot payload; nil when no generation exists
	replays  []walFile

	mu        sync.Mutex
	gen       uint64
	f         *os.File
	rec       []byte // reusable record build buffer
	walSize   int64
	records   int64
	recovered bool
	closed    bool
	failed    error // latched after a WAL write/fsync failure: all appends refuse
	dirty     bool  // FsyncBatch: bytes written since the last background sync

	// syncs is the FsyncAlways group commit: appends whose records reached
	// the file while an fsync was in flight share the next one.
	syncs shard.Group[struct{}, struct{}]

	stopSync chan struct{}
	syncDone chan struct{}
}

const (
	walSuffix  = ".log"
	snapSuffix = ".snap"
	tmpSuffix  = ".tmp"
)

func walPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d%s", gen, walSuffix))
}

func snapPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016d%s", gen, snapSuffix))
}

// parseGen extracts the generation number from a data-dir file name.
func parseGen(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	g, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	return g, err == nil
}

// Open opens (or creates) the data directory, selects the recovery base
// (newest intact snapshot), prunes generations older than it, and starts a
// fresh WAL generation for this process lifetime. Call Recover next.
func Open(dir string, o Options) (*Engine, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var wals []walFile
	var snapGens []uint64
	for _, ent := range entries {
		name := ent.Name()
		if strings.HasSuffix(name, tmpSuffix) {
			os.Remove(filepath.Join(dir, name)) // crashed mid-snapshot: the rename never happened
			continue
		}
		if g, ok := parseGen(name, "wal-", walSuffix); ok {
			wals = append(wals, walFile{gen: g, path: filepath.Join(dir, name)})
		}
		if g, ok := parseGen(name, "snap-", snapSuffix); ok {
			snapGens = append(snapGens, g)
		}
	}
	sort.Slice(wals, func(i, j int) bool { return wals[i].gen < wals[j].gen })
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] > snapGens[j] })

	e := &Engine{
		dir:      dir,
		mode:     o.Mode,
		stopSync: make(chan struct{}),
		syncDone: make(chan struct{}),
	}
	// The base is the newest snapshot whose CRC validates; older or corrupt
	// snapshots are skipped (their WAL generations are then replayed
	// instead, if still present). If snapshots exist but none validates,
	// the WAL generations they covered are long pruned, so booting from the
	// surviving suffix would silently regress acknowledged state — refuse,
	// and let the operator reconstitute from a live quorum instead.
	for _, g := range snapGens {
		if payload, err := readSnapshotFile(snapPath(dir, g)); err == nil {
			e.baseGen, e.baseSnap = g, payload
			break
		}
	}
	if len(snapGens) > 0 && e.baseSnap == nil {
		return nil, fmt.Errorf("persist: %s: no intact snapshot among %d (reconstitute from a live quorum)", dir, len(snapGens))
	}
	maxGen := e.baseGen
	for _, w := range wals {
		if w.gen > maxGen {
			maxGen = w.gen
		}
		if w.gen < e.baseGen {
			os.Remove(w.path) // superseded by the base snapshot
			continue
		}
		if fi, err := os.Stat(w.path); err == nil && fi.Size() == 0 {
			os.Remove(w.path) // empty generation from an idle restart
			continue
		}
		e.replays = append(e.replays, w)
	}
	e.gen = maxGen + 1
	f, err := os.OpenFile(walPath(dir, e.gen), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: create wal: %w", err)
	}
	e.f = f
	if e.mode == FsyncBatch {
		go e.syncLoop()
	} else {
		close(e.syncDone)
	}
	mEngines.Inc()
	return e, nil
}

// Recover loads the base snapshot and replays every surviving WAL
// generation in order, returning the reconstituted register-instance map
// (keyed by wire register instance). A torn tail in the newest generation
// is truncated silently — those records' acknowledgements never left.
// Damage in any older generation, and a record this software does not read
// in any generation (ErrFormat), is an error: records after it are
// unreachable and replaying around them could durably regress acknowledged
// state; the operator should reconstitute the object from a live quorum
// (storctl repair) instead.
func (e *Engine) Recover() (map[int]*server.Store, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.recovered {
		return nil, fmt.Errorf("persist: Recover called twice")
	}
	e.recovered = true
	stores := make(map[int]*server.Store)
	if e.baseSnap != nil {
		if err := server.DecodeStores(e.baseSnap, stores); err != nil {
			return nil, fmt.Errorf("persist: %w", err)
		}
		e.baseSnap = nil // one-shot; free the payload
	}
	apply := func(from types.ProcID, reg int, msg types.Message) {
		st := stores[reg]
		if st == nil {
			st = server.NewStore()
			stores[reg] = st
		}
		st.Handle(from, msg)
	}
	for i, w := range e.replays {
		n, err := replayWAL(w.path, i == len(e.replays)-1, func(req wire.Request) {
			if len(req.Subs) == 0 {
				apply(req.From, req.Reg, req.Msg)
			}
			// A batch envelope logs many register instances' mutations as
			// one record; replay each sub against its own instance (the
			// server sanitized instance numbers before appending).
			for _, sub := range req.Subs {
				apply(req.From, sub.Reg, sub.Msg)
			}
		})
		if err != nil {
			return nil, err
		}
		e.records += int64(n)
	}
	return stores, nil
}

// ErrFormat reports a WAL record that is intact on disk (its CRC holds) but
// does not parse as a frame of this software's wire generation: a log written
// by another release (the error then wraps wire.ErrVersion), or corruption
// the framing cannot see. Recovery refuses it at any position, leaving the
// file untouched, rather than guess or cut acknowledged records off behind
// it: reconstitute the object from a live quorum (storctl repair) instead.
var ErrFormat = errors.New("persist: unsupported WAL record format")

// replayWAL replays one WAL file record by record and returns how many it
// applied. Replay stops where the FRAMING is damaged: in the newest
// generation that is the tail the crash tore, and the file is truncated back
// to its last intact record, so that on the next recovery — when this
// generation is no longer the newest — it replays cleanly; in an older
// generation it is an error. An intact record that does not parse is never
// a tear: it is refused with ErrFormat wherever it sits.
func replayWAL(path string, newest bool, apply func(wire.Request)) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("persist: replay: %w", err)
	}
	applied, off := 0, 0
	for off < len(data) {
		payload, size := cutRecord(data[off:])
		if size == 0 {
			break
		}
		req, err := wire.ParseRequest(payload)
		if err != nil {
			return applied, fmt.Errorf("%w: %s: record %d at offset %d: %w", ErrFormat, path, applied, off, err)
		}
		apply(req)
		applied++
		off += size
	}
	if off == len(data) {
		return applied, nil
	}
	if !newest {
		return applied, fmt.Errorf("persist: %s: corrupt record at offset %d (not the newest generation; reconstitute from a live quorum)", path, off)
	}
	if err := os.Truncate(path, int64(off)); err != nil {
		return applied, fmt.Errorf("persist: %s: truncating torn tail: %w", path, err)
	}
	return applied, nil
}

// Append durably logs one mutating request envelope: Write, then Sync. It
// returns once the record is on disk per the engine's fsync mode. A caller
// whose records' ORDER matters appends from one goroutine, or — the object
// host — calls Write under a lock of its own and Sync outside it.
func (e *Engine) Append(req wire.Request) error {
	if err := e.Write(req); err != nil {
		return err
	}
	return e.Sync()
}

// Write appends req's record to the live WAL generation with one write(2):
// the record's place in the log is the place of this call among the Writes.
// The operating system has the record when Write returns — a killed process
// loses nothing — but no fsync has been waited for (Sync).
func (e *Engine) Write(req wire.Request) error {
	start := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("persist: engine closed")
	}
	if !e.recovered {
		return fmt.Errorf("persist: Append before Recover")
	}
	if e.failed != nil {
		return fmt.Errorf("persist: wal latched after earlier failure: %w", e.failed)
	}
	rec, err := buildRecord(&e.rec, req)
	if err != nil {
		// An envelope no frame can carry (wire.ErrFrameTooLarge): this one
		// record is refused with nothing written, and the log stays usable.
		return fmt.Errorf("persist: %w", err)
	}
	if _, err := e.f.Write(rec); err != nil {
		// A partial frame may sit mid-file now. Without latching, later
		// appends would land after the damage and replay would silently
		// drop them at the torn frame — acked records lost, the amnesia
		// fault this engine exists to prevent. Refuse all further appends;
		// the object goes silent, which correct clients tolerate.
		e.failed = err
		return fmt.Errorf("persist: wal write: %w", err)
	}
	e.walSize += int64(len(rec))
	e.records++
	if e.mode == FsyncBatch {
		e.dirty = true
	}
	mWALAppends.Inc()
	mWALBytes.Add(int64(len(rec)))
	mWALAppendLat.RecordSince(start)
	return nil
}

// Sync returns once every record written before the call is as durable as
// the mode makes it: at once under FsyncBatch (the background syncer's 2 ms
// window) and FsyncOff, after an fsync under FsyncAlways — a group commit: a
// batch's fsync starts after its last member joined, and a member's record
// was in the file before it joined, so the one fsync covers them all.
func (e *Engine) Sync() error {
	if e.mode != FsyncAlways {
		return nil
	}
	_, _, err := e.syncs.Do(struct{}{}, e.syncBatch)
	return err
}

// syncBatch fsyncs the WAL on behalf of one batch of FsyncAlways appends.
func (e *Engine) syncBatch([]struct{}) (struct{}, error) {
	e.mu.Lock()
	f := e.f
	e.mu.Unlock()
	syncStart := time.Now()
	err := f.Sync()
	mWALFsyncs.Inc()
	mWALFsyncLat.RecordSince(syncStart)
	if err == nil {
		return struct{}{}, nil
	}
	e.mu.Lock()
	if e.f == f && !e.closed {
		e.failed = err // a disk that cannot fsync must stop acking
	}
	e.mu.Unlock()
	return struct{}{}, fmt.Errorf("persist: wal fsync: %w", err)
}

// syncLoop is the FsyncBatch background syncer.
func (e *Engine) syncLoop() {
	defer close(e.syncDone)
	t := time.NewTicker(batchInterval)
	defer t.Stop()
	for {
		select {
		case <-e.stopSync:
			return
		case <-t.C:
			e.mu.Lock()
			if !e.dirty || e.closed {
				e.mu.Unlock()
				continue
			}
			e.dirty = false
			f := e.f
			e.mu.Unlock()
			syncStart := time.Now()
			err := f.Sync()
			mWALFsyncs.Inc()
			mWALFsyncLat.RecordSince(syncStart)
			if err != nil {
				// A rotation may have closed f concurrently (rotation
				// fsyncs the old file itself, so that loses nothing);
				// only a failure on the still-current file latches.
				e.mu.Lock()
				if e.f == f && !e.closed {
					e.failed = err
				}
				e.mu.Unlock()
			}
		}
	}
}

// WALSize returns the bytes appended to the current WAL generation — the
// compaction trigger input.
func (e *Engine) WALSize() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.walSize
}

// Records returns the total records appended and replayed (instrumentation).
func (e *Engine) Records() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.records
}

// Rotate begins a compaction cycle: it seals the current WAL generation and
// starts a new one, so that a snapshot taken now (with mutations quiesced)
// covers every sealed generation. It returns the new generation number,
// which the caller must pass to Commit along with that snapshot — pairing
// them explicitly, so that if another cycle rotates in between, each
// snapshot is still installed under the generation whose sealed prefix it
// actually covers (a stale snapshot under a newer number would prune WAL
// records it lacks). Callers must quiesce Append around Rotate and the
// state capture.
func (e *Engine) Rotate() (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return 0, fmt.Errorf("persist: engine closed")
	}
	if err := e.f.Sync(); err != nil {
		return 0, fmt.Errorf("persist: rotate sync: %w", err)
	}
	if err := e.f.Close(); err != nil {
		return 0, fmt.Errorf("persist: rotate close: %w", err)
	}
	e.gen++
	f, err := os.OpenFile(walPath(e.dir, e.gen), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("persist: rotate: %w", err)
	}
	e.f = f
	e.walSize = 0
	e.dirty = false
	return e.gen, nil
}

// Commit durably installs snap as the snapshot covering every generation
// before gen (the state captured at the matching Rotate), then prunes the
// generations it supersedes. The write is crash-atomic: the snapshot is
// fsynced under a temporary name and renamed into place, and old
// generations are deleted only afterwards, so a crash anywhere in between
// recovers from either the old base or the new one.
func (e *Engine) Commit(gen uint64, snap []byte) error {
	if err := writeSnapshotFile(snapPath(e.dir, gen), snap); err != nil {
		return err
	}
	mWALCompactions.Inc()
	// Prune: everything before gen is now covered by the snapshot.
	entries, err := os.ReadDir(e.dir)
	if err != nil {
		return nil // pruning is best-effort; recovery tolerates leftovers
	}
	for _, ent := range entries {
		name := ent.Name()
		if g, ok := parseGen(name, "wal-", walSuffix); ok && g < gen {
			os.Remove(filepath.Join(e.dir, name))
		}
		if g, ok := parseGen(name, "snap-", snapSuffix); ok && g < gen {
			os.Remove(filepath.Join(e.dir, name))
		}
	}
	return nil
}

// Close seals the WAL (final fsync) and releases the engine.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.stopSync)
	err := e.f.Sync()
	if cerr := e.f.Close(); err == nil {
		err = cerr
	}
	e.mu.Unlock()
	<-e.syncDone
	if err != nil {
		return fmt.Errorf("persist: close: %w", err)
	}
	return nil
}

// Snapshot files carry the payload followed by a 4-byte little-endian CRC32
// trailer; a file failing the check (torn by a crash racing the rename, or
// rotted) is skipped in favor of an older generation.

// writeSnapshotFile writes payload+CRC to path via fsynced temp file and
// atomic rename, fsyncing the directory so the rename itself is durable.
func writeSnapshotFile(path string, payload []byte) error {
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: snapshot: %w", err)
	}
	_, werr := f.Write(payload)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	if werr == nil {
		_, werr = f.Write(crc[:])
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: snapshot: %w", werr)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: snapshot: %w", err)
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// readSnapshotFile reads and CRC-validates a snapshot file, returning the
// payload.
func readSnapshotFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("persist: snapshot: %w", err)
	}
	if len(data) < 4 {
		return nil, fmt.Errorf("persist: snapshot %s: truncated", path)
	}
	payload, crc := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, fmt.Errorf("persist: snapshot %s: CRC mismatch", path)
	}
	return payload, nil
}
