// Package server implements the storage-object automaton of the paper's
// model: a passive process that replies to client messages and never
// initiates communication, plus the Byzantine behaviors used for fault
// injection and for the lower-bound adversaries.
//
// One Store hosts any number of registers (multiplexed by RegID) of one
// register instance, which is what the classical regular→atomic
// transformation of Section 5 needs: the writers' register and the R
// per-reader write-back registers on the same S physical objects, sharing
// physical rounds. The clients here address the shared register alone.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"robustatomic/internal/obs"
	"robustatomic/internal/types"
)

// mStores counts register-instance automata created process-wide: the
// instance-count signal behind the per-daemon register gauges (instances
// are created on first touch and never destroyed short of process exit).
var mStores = obs.Default.Counter("server_store_instances_total")

// Value-eliding reads: how many non-⊥ slot values READ replies withheld
// (the client's have-list named them, or it asked for no values) against
// how many they shipped, and the shipped bytes. A W slot equal to PW ships
// as one copy (the wire's W==PW bit), so it counts once.
var (
	mReadElided    = obs.Default.Counter("server_read_values_elided_total")
	mReadSent      = obs.Default.Counter("server_read_values_sent_total")
	mReadSentBytes = obs.Default.Counter("server_read_value_bytes_sent_total")
)

// Value-eliding writes: which form the writes handled here took — a WRITE
// that named the pair to promote, a PREWRITE that spliced its value out of a
// held one — and how many conditioned writes were refused for naming a pair
// this object does not hold. An object that needs the value on every write
// is lagging, or lying.
var (
	mWritePromoted   = obs.Default.Counter("server_write_promoted_total")
	mPrewriteSpliced = obs.Default.Counter("server_prewrite_spliced_total")
	mNeedValue       = obs.Default.Counter("server_need_value_total")
)

// readStats tallies one Handle call's READ slots, so a 9-register bundle
// costs three counter updates instead of twenty-seven.
type readStats struct{ elided, sent, sentBytes int64 }

func (rs *readStats) flush() {
	if rs.elided != 0 {
		mReadElided.Add(rs.elided)
	}
	if rs.sent != 0 {
		mReadSent.Add(rs.sent)
		mReadSentBytes.Add(rs.sentBytes)
	}
}

// RegState is the per-register state of a storage object in the regular
// register protocol: the pre-written pair pw, the written pair w, and the
// secret tokens received with each (zero outside the [DMSS09] model).
type RegState struct {
	PW      types.Pair
	W       types.Pair
	TokenPW types.Token
	TokenW  types.Token

	// digPW / digW memoize the slots' value digests (0 = not computed): a
	// conditional READ compares them against the client's have-list. Derived
	// state — computed on the first READ that needs it, cleared when the slot
	// changes, never snapshotted (Restore starts cold and recomputes lazily).
	digPW, digW uint64
}

// held reports whether the have-list names the slot holding p, computing
// and memoizing the slot's digest on the first timestamp match.
func held(have []types.Have, p types.Pair, dig *uint64) bool {
	for i := range have {
		if have[i].TS != p.TS {
			continue
		}
		if *dig == 0 {
			*dig = p.Val.Digest()
		}
		// At most one entry per timestamp (types.Message.Have).
		return have[i].Digest == *dig
	}
	return false
}

// read builds the STATE reply to a READ. The slot values are withheld —
// timestamp only, elided bit set — when the request asks for no values, or
// when its have-list names the slot's (timestamp, digest): the client
// re-inflates from its own copy (proto.Known), so for a correct object the
// inflated reply equals the unconditioned one. An empty have-list is the
// unconditioned read. *reply is zero on entry.
func (st *RegState) read(m, reply *types.Message, rs *readStats) {
	reply.Kind = types.MsgState
	reply.PW, reply.W = st.PW, st.W
	reply.TokenPW, reply.Token = st.TokenPW, st.TokenW
	noVals := m.Flags&types.FlagNoValues != 0
	if st.PW.Val != "" {
		if noVals || held(m.Have, st.PW, &st.digPW) {
			reply.PW.Val = ""
			reply.Flags |= types.FlagElidedPW
			rs.elided++
		} else {
			rs.sent++
			rs.sentBytes += int64(len(st.PW.Val))
		}
	}
	if st.W.Val != "" {
		if noVals || held(m.Have, st.W, &st.digW) {
			reply.W.Val = ""
			reply.Flags |= types.FlagElidedW
			rs.elided++
		} else if st.W != st.PW {
			rs.sent++
			rs.sentBytes += int64(len(st.W.Val))
		}
	}
}

// Store is the storage object automaton of one register instance: Handle
// processes one client message and returns the reply (objects reply to each
// message before receiving any other, per the round model); Snapshot and
// Restore expose the full state — the lower-bound adversaries "forge the
// state to σ" by restoring snapshots taken at earlier points of a run, and
// the durability engine (internal/persist) persists and recovers it. The zero
// value is not usable; use NewStore. It is not safe for concurrent use; Host
// serializes access (the model's objects process one message at a time).
type Store struct {
	regs map[types.RegID]*RegState
	// ids holds regs' keys in ascending regLess order, maintained
	// incrementally on first touch so Snapshot never re-sorts — periodic
	// snapshotting must not degrade with instance count.
	ids []types.RegID
}

// NewStore returns an empty storage object.
func NewStore() *Store {
	mStores.Inc()
	return &Store{regs: make(map[types.RegID]*RegState)}
}

// regLess orders register IDs by (Class, Idx).
func regLess(a, b types.RegID) bool {
	if a.Class != b.Class {
		return a.Class < b.Class
	}
	return a.Idx < b.Idx
}

// reg returns the state of register id, creating it on first touch.
func (s *Store) reg(id types.RegID) *RegState {
	st, ok := s.regs[id]
	if !ok {
		st = &RegState{}
		s.regs[id] = st
		i := sort.Search(len(s.ids), func(i int) bool { return !regLess(s.ids[i], id) })
		s.ids = append(s.ids, types.RegID{})
		copy(s.ids[i+1:], s.ids[i:])
		s.ids[i] = id
	}
	return st
}

// Reg returns a copy of register id's current state (for tests and
// assertions).
func (s *Store) Reg(id types.RegID) RegState { return *s.reg(id) }

// Handle processes one message and returns the reply: every part of m (see
// types.Address) against the register it addresses, each sub-reply built in
// place in a reply of m's shape (a 9-register read copies no message).
func (s *Store) Handle(from types.ProcID, m types.Message) types.Message {
	var rs readStats
	reply := types.ReplyTo(&m)
	for i, n := 0, m.NumParts(); i < n; i++ {
		id, req := m.Part(i)
		_, rsp := reply.Part(i)
		s.handleReg(req, id, rsp, &rs)
	}
	rs.flush()
	reply.Seq = m.Seq
	return reply
}

// handleReg processes register-level message m against register id, leaving
// the reply in *reply (zero on entry).
func (s *Store) handleReg(m *types.Message, id types.RegID, reply *types.Message, rs *readStats) {
	st := s.reg(id)
	switch m.Kind {
	case types.MsgPreWrite, types.MsgWrite, types.MsgWriteBack:
		p, ok := st.written(m)
		if !ok {
			// A condition this object cannot meet: nothing changes, and the
			// client, told what IS held, sends the phase again in full.
			reply.Kind = types.MsgNeedValue
			reply.PW.TS, reply.W.TS = st.PW.TS, st.W.TS
			mNeedValue.Inc()
			return
		}
		reply.Kind = types.MsgAck
		if m.Kind != types.MsgPreWrite {
			if st.W.Less(p) {
				st.setW(p)
				st.TokenW = m.Token
			}
			return
		}
		// The acknowledgement piggybacks the timestamps the object held
		// BEFORE applying this prewrite (values stripped — validation only
		// compares timestamps): the writer's optimistic fast path reads a
		// quorum of these to certify that nothing newer than its cached
		// timestamp is in circulation, without a separate discovery round.
		reply.PW.TS, reply.W.TS = st.PW.TS, st.W.TS
		if st.PW.Less(p) {
			st.PW, st.digPW = p, 0
			st.TokenPW = m.Token
		}
	case types.MsgRead1:
		st.read(m, reply, rs)
	case types.MsgABDQuery:
		reply.Kind, reply.Pair = types.MsgABDVal, st.W
	case types.MsgABDStore:
		if st.W.Less(m.Pair) {
			st.setW(m.Pair)
		}
		reply.Kind = types.MsgAck
	default:
		reply.Kind, reply.PW, reply.W = types.MsgState, st.PW, st.W
	}
}

// written returns the pair that write m stores. An unconditioned write
// carries it. A conditioned one (types.Message.Have) names a pair this
// register must hold, in pw or w, under that exact timestamp AND digest, and
// says how the written value comes out of it: as it stands — a WRITE by
// reference, promoting the pair its PREWRITE stored — or through the edit in
// m.Pair.Val (FlagSplice). Either way the result is the pair the
// unconditioned message would have carried, so what the caller then does with
// it is the unconditioned write's step; ok is false when the named pair is
// not held or the edit does not apply to it, and nothing may change then. The
// object stays value-agnostic: it splices bytes, it never learns their codec.
func (st *RegState) written(m *types.Message) (_ types.Pair, ok bool) {
	if len(m.Have) == 0 {
		return m.Pair, true
	}
	base, cond := st.PW, m.Have[:1]
	if !held(cond, st.PW, &st.digPW) {
		if base = st.W; !held(cond, st.W, &st.digW) {
			return types.Pair{}, false
		}
	}
	if m.Flags&types.FlagSplice != 0 {
		v, ok := base.Val.Splice(m.Pair.Val)
		if ok {
			mPrewriteSpliced.Inc()
		}
		return types.Pair{TS: m.Pair.TS, Val: v}, ok
	}
	if base.TS != m.Pair.TS || m.Pair.Val != "" {
		return types.Pair{}, false
	}
	mWritePromoted.Inc()
	return base, true
}

// setW installs p in the w slot. The WRITE phase normally carries the pair
// the PREWRITE phase stored, so the slot then shares pw's copy of the value
// (and its digest) instead of retaining a second one — which also makes the
// wire's W==PW check a pointer comparison.
func (st *RegState) setW(p types.Pair) {
	if p == st.PW {
		st.W, st.digW = st.PW, st.digPW
		return
	}
	st.W, st.digW = p, 0
}

// Mutates reports whether handling m can advance a store's state: whether
// any of its parts is a PREWRITE, WRITE, WRITEBACK or ABD_STORE. The
// durability layer logs exactly these messages before the reply leaves, the
// transport still owes them to an object it deferred, and an object serving
// its past (Stale) answers them from its present; everything else only
// queries state.
func Mutates(m types.Message) bool {
	for i, n := 0, m.NumParts(); i < n; i++ {
		switch _, part := m.Part(i); part.Kind {
		case types.MsgPreWrite, types.MsgWrite, types.MsgWriteBack, types.MsgABDStore:
			return true
		}
	}
	return false
}

// Snapshot format: one version byte, a uvarint register count, then per
// register (in ascending regLess order) the RegID and RegState fields,
// integers as uvarints and values length-prefixed: no re-sorting (ids is
// maintained incrementally), one allocation.
//
// Version 0x03 carries multi-writer (Seq, WID) timestamps: each pair is
// Seq uvarint, WID uvarint, value. Any other version byte (0x02 carried
// scalar timestamps) is refused with ErrSnapshotVersion.
const snapshotVersion = 0x03

// ErrSnapshotVersion reports a snapshot written in a format this software
// does not read.
var ErrSnapshotVersion = errors.New("server: unsupported snapshot version")

// Snapshot captures the full state. The encoding is deterministic: equal
// states yield equal bytes.
func (s *Store) Snapshot() ([]byte, error) {
	return s.AppendSnapshot(make([]byte, 0, s.snapshotBound())), nil
}

// snapshotBound bounds the snapshot's size from above.
func (s *Store) snapshotBound() int {
	size := 1 + binary.MaxVarintLen64
	for _, id := range s.ids {
		st := s.regs[id]
		size += 8*binary.MaxVarintLen64 + len(st.PW.Val) + len(st.W.Val)
	}
	return size
}

// AppendSnapshot appends the snapshot to b.
func (s *Store) AppendSnapshot(b []byte) []byte {
	b = append(b, snapshotVersion)
	b = binary.AppendUvarint(b, uint64(len(s.ids)))
	for _, id := range s.ids {
		st := s.regs[id]
		b = binary.AppendUvarint(b, uint64(id.Class))
		b = binary.AppendUvarint(b, uint64(id.Idx))
		b = appendPair(b, st.PW)
		b = appendPair(b, st.W)
		b = binary.AppendUvarint(b, uint64(st.TokenPW))
		b = binary.AppendUvarint(b, uint64(st.TokenW))
	}
	return b
}

// appendPair encodes a timestamp-value pair (sequence numbers are
// non-negative: writers issue them from 0 upward; the int64→uint64 uvarint
// round-trip is lossless regardless).
func appendPair(b []byte, p types.Pair) []byte {
	b = binary.AppendUvarint(b, uint64(p.TS.Seq))
	b = binary.AppendUvarint(b, uint64(p.TS.WID))
	b = binary.AppendUvarint(b, uint64(len(p.Val)))
	return append(b, string(p.Val)...)
}

// Restore replaces the state with a snapshot's.
func (s *Store) Restore(b []byte) error {
	if len(b) == 0 {
		return fmt.Errorf("server: restore: empty snapshot")
	}
	if b[0] != snapshotVersion {
		return fmt.Errorf("%w: restore: header byte %#02x, want %#02x", ErrSnapshotVersion, b[0], snapshotVersion)
	}
	d := snapDecoder{b: b[1:]}
	n := d.uvarint()
	if n > uint64(len(d.b)) { // each register costs ≥ 6 bytes; cheap bound
		return fmt.Errorf("server: restore: register count %d exceeds payload", n)
	}
	regs := make(map[types.RegID]*RegState, n)
	ids := make([]types.RegID, 0, n)
	for i := uint64(0); i < n; i++ {
		id := types.RegID{Class: types.RegClass(d.uvarint()), Idx: int(d.uvarint())}
		st := &RegState{}
		st.PW = d.pair()
		st.W = d.pair()
		if st.W == st.PW {
			st.W = st.PW // share one copy of a settled register's value
		}
		st.TokenPW = types.Token(d.uvarint())
		st.TokenW = types.Token(d.uvarint())
		if d.err != nil {
			return fmt.Errorf("server: restore: truncated snapshot (register %d of %d)", i, n)
		}
		regs[id] = st
		ids = append(ids, id)
	}
	if len(d.b) != 0 {
		return fmt.Errorf("server: restore: %d trailing bytes", len(d.b))
	}
	// Snapshots are written in ascending order, but tolerate any order from
	// foreign producers: the incremental invariant must hold after Restore.
	if !sort.SliceIsSorted(ids, func(i, j int) bool { return regLess(ids[i], ids[j]) }) {
		sort.Slice(ids, func(i, j int) bool { return regLess(ids[i], ids[j]) })
	}
	s.regs = regs
	s.ids = ids
	return nil
}

// snapDecoder cuts snapshot fields off a byte slice, latching the first
// error so call sites stay linear.
type snapDecoder struct {
	b   []byte
	err error
}

func (d *snapDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, w := binary.Uvarint(d.b)
	if w <= 0 {
		d.err = fmt.Errorf("truncated uvarint")
		return 0
	}
	d.b = d.b[w:]
	return x
}

func (d *snapDecoder) pair() types.Pair {
	seq := d.uvarint()
	wid := d.uvarint()
	n := d.uvarint()
	if d.err != nil {
		return types.Pair{}
	}
	if n > uint64(len(d.b)) {
		d.err = fmt.Errorf("truncated value")
		return types.Pair{}
	}
	p := types.Pair{TS: types.TS{Seq: int64(seq), WID: int64(wid)}, Val: types.Value(d.b[:n])}
	d.b = d.b[n:]
	return p
}

// Clone returns a deep copy of the store.
func (s *Store) Clone() *Store {
	out := &Store{
		regs: make(map[types.RegID]*RegState, len(s.regs)),
		ids:  append([]types.RegID(nil), s.ids...),
	}
	for id, st := range s.regs {
		cp := *st
		out.regs[id] = &cp
	}
	return out
}
