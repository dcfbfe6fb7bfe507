// Value-eliding reads, client side.
//
// The paper's objects answer every READ with their whole (pw, w) state — so
// a reader of a settled register is sent, S times per round, a value it
// decided on one read ago and still holds. A Known set is what the client
// still holds: the few GENUINE pairs of the shared register it most recently
// decided, wrote, or was shipped in full by t+1 objects at once. Every READ
// built from it carries those pairs' (timestamp, digest) as its have-list; an
// object whose slot matches an entry answers with the timestamp and an
// "elided" bit instead of the value (server.RegState.read), and the reply is
// re-inflated from the set in RegAcc (regacc.go), before the register's
// accumulator sees it — so the decision procedure, the write-back elision
// check and the checkers run on byte-identical inputs.
//
// Safety: for a correct object the inflated reply EQUALS the unconditioned
// reply. The object elides only a slot whose (timestamp, digest) the request
// named; the have-list holds at most one entry per timestamp; and every
// entry is a pair some writer really issued — a decision's output, this
// process's own write, or a pair t+1 distinct objects shipped identically in
// one round, one of them correct. So both sides of the digest comparison are
// writer-issued values under one timestamp: they are the same value — and
// should a timestamp ever name two (a writer identity re-proposing a
// sequence number across process lifetimes), the digest tells them apart.
// No value a Byzantine object merely SENT ever enters a have-list, so the
// digest is never computed over an adversary's input and needs no
// cryptographic strength. A Byzantine object
// claiming "elided at ts" for an offered ts makes the client see exactly the
// pair it would have seen had the object sent that genuine pair in full —
// which it could always do — and a claim for a ts the client did not offer
// is dropped like a reply never sent. Conditioning a READ therefore gives
// the adversary no reply it could not already produce, and an empty
// have-list IS the unconditioned read: there is no second read path.

package proto

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"robustatomic/internal/obs"
	"robustatomic/internal/quorum"
	"robustatomic/internal/types"
)

// Client-side elision counters: slot values re-inflated from a Known set,
// and replies dropped for claiming elision of a pair the request did not
// offer (only a faulty object sends those).
var (
	mInflated      = obs.Default.Counter("core_read_inflated_total")
	mInflateReject = obs.Default.Counter("core_read_inflate_reject_total")
)

// knownPerReg bounds the register's entries: the current pair, the previous
// one (while a write is in flight the objects are split between the two),
// and one spare for a second writer's concurrent pair. Oldest admitted is
// evicted first.
const knownPerReg = 3

// elidedBits are the reply flags a Known set resolves.
const elidedBits = types.FlagElidedPW | types.FlagElidedW

// Known is the known-pair set of the shared register of ONE register
// instance (one atomic register — one Store shard), shared by every reader
// and writer handle this process runs against it. Safe for concurrent use.
// Recording a pair allocates nothing (a writer records one per write); a
// handle keeps a private copy of the set, refreshed — one atomic load to find
// out — only when the set's version moved, so steady-state reads take no lock
// and allocate nothing either.
type Known struct {
	confirm int // t+1: identical full copies that prove a pair genuine

	ver atomic.Uint64 // bumped, under mu, on every change of reg
	mu  sync.Mutex
	reg knownReg
}

// NewKnown returns an empty set — reads built from it are unconditioned —
// for a register hosted under the given thresholds.
func NewKnown(th quorum.Thresholds) *Known { return &Known{confirm: th.T + 1} }

// knownReg is the register's entries, newest admitted first, at most one per
// timestamp, with their value digests.
type knownReg struct {
	n     int
	pairs [knownPerReg]types.Pair
	digs  [knownPerReg]uint64
}

// find returns the index of the entry at ts, or -1.
func (kr *knownReg) find(ts types.TS) int {
	for i := 0; i < kr.n; i++ {
		if kr.pairs[i].TS == ts {
			return i
		}
	}
	return -1
}

// holds reports whether p is an entry.
func (kr *knownReg) holds(p types.Pair) bool {
	i := kr.find(p.TS)
	return i >= 0 && kr.pairs[i].Val == p.Val
}

// put places p at the front. An entry already at p's timestamp is replaced
// (the residual of the file comment: the newer observation wins);
// otherwise the oldest entry makes room.
func (kr *knownReg) put(p types.Pair) {
	at := kr.find(p.TS)
	if at < 0 {
		if kr.n < knownPerReg {
			kr.n++
		}
		at = kr.n - 1
	}
	copy(kr.pairs[1:at+1], kr.pairs[:at])
	copy(kr.digs[1:at+1], kr.digs[:at])
	kr.pairs[0], kr.digs[0] = p, p.Val.Digest()
}

// inflate restores the values an object elided from STATE reply m, clearing
// the elided bits, and returns how many it restored. ok is false when m
// claims elision at a timestamp the have-list did not carry.
func (kr *knownReg) inflate(m *types.Message) (n int64, ok bool) {
	if m.Flags&types.FlagElidedPW != 0 {
		i := kr.find(m.PW.TS)
		if i < 0 {
			return 0, false
		}
		m.PW.Val = kr.pairs[i].Val
		n++
	}
	if m.Flags&types.FlagElidedW != 0 {
		i := kr.find(m.W.TS)
		if i < 0 {
			return 0, false
		}
		m.W.Val = kr.pairs[i].Val
		n++
	}
	m.Flags &^= elidedBits
	return n, true
}

// Seed records that this process holds p, a GENUINE pair: one a read
// decided, or one this process wrote (it issued the timestamp, so no other
// value exists under it). ⊥ is never recorded — there is nothing to elide.
func (k *Known) Seed(p types.Pair) {
	if k == nil || p.Val == "" || p.TS.IsZero() {
		return
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if !k.reg.holds(p) {
		k.reg.put(p) // hashes p.Val: ~5 µs for a 35 KB table
		k.ver.Add(1)
	}
}

// Digest returns the digest of p's value: the set's own when it holds p, so
// that a writer naming the pair it just seeded hashes its value once.
func (k *Known) Digest(p types.Pair) uint64 {
	if k != nil {
		var dig uint64 // no digest is 0
		k.mu.Lock()
		if k.reg.holds(p) {
			dig = k.reg.digs[k.reg.find(p.TS)]
		}
		k.mu.Unlock()
		if dig != 0 {
			return dig
		}
	}
	return p.Val.Digest()
}

// shipped is a pair some objects sent in full during one round, and which.
type shipped struct {
	pair types.Pair
	from uint64 // bitmask of sender ids
}

// inflater is a handle's side of a Known set: view, the handle's private
// copy of the set — what its requests are hinted from and its replies
// inflated against, so another handle's update can never orphan a correct
// object's elision — and the pairs the current round's replies shipped in
// full, by sender. Embedded in RegAcc.
type inflater struct {
	known *Known
	ver   uint64 // version of known that view copies
	view  knownReg
	haves []types.Have // view's have-list
	slab  []types.Have // what haves are carved from
	full  []shipped
	// seen is the round's evidence against objects (Verdict): who claimed an
	// un-offered elision.
	seen Verdict
}

// refresh brings view up to date and forgets the previous round's full
// pairs; it reports whether view changed (requests hinted from the old
// one must be rebuilt).
func (in *inflater) refresh() bool {
	in.full, in.seen = in.full[:0], Verdict{}
	if in.known == nil || in.known.ver.Load() == in.ver {
		return false
	}
	in.known.mu.Lock()
	in.ver = in.known.ver.Load()
	in.view = in.known.reg
	in.known.mu.Unlock()
	// The have-list goes into requests, which are immutable once sent (a slow
	// object may be sent the previous round's request after this returns): it
	// is appended to a slab, never patched — a full slab is replaced, not
	// reused — so most refreshes allocate nothing.
	if cap(in.slab)-len(in.slab) < knownPerReg {
		in.slab = make([]types.Have, 0, 64)
	}
	from := len(in.slab)
	for j := 0; j < in.view.n; j++ {
		in.slab = append(in.slab, types.Have{TS: in.view.pairs[j].TS, Digest: in.view.digs[j]})
	}
	in.haves = in.slab[from:len(in.slab):len(in.slab)]
	return true
}

// Seed records a genuine pair in the Known set (see Known.Seed), skipping
// the lock when the view already holds it — the steady state of a reader
// reseeding what it just decided.
func (in *inflater) Seed(p types.Pair) {
	if !in.view.holds(p) {
		in.known.Seed(p)
	}
}

// admit prepares object sid's reply m for the accumulator: elided values are
// re-inflated (n counts them), and a pair that t+1 objects have now shipped
// in full this round — one of them is correct, so some writer issued it —
// joins the set, so the next round is not sent it again. ok is false when m
// claims elision of a pair the request did not offer; the caller drops the
// reply.
func (in *inflater) admit(sid int, m *types.Message) (n int64, ok bool) {
	if m.Kind != types.MsgState {
		return 0, true
	}
	elided := m.Flags & elidedBits
	if elided != 0 {
		if n, ok = in.view.inflate(m); !ok {
			return 0, false
		}
	}
	if in.known != nil && sid >= 1 && sid < 64 {
		same := m.W == m.PW // one string on the wire
		if elided&types.FlagElidedPW == 0 {
			m.PW = in.sawFull(sid, m.PW)
		}
		if same {
			m.W = m.PW
		} else if elided&types.FlagElidedW == 0 {
			m.W = in.sawFull(sid, m.W)
		}
	}
	return n, true
}

// sawFull notes that object sid shipped p in full and returns the round's
// first identical copy of it: like an inflated value, a pair several objects
// shipped reaches the accumulator as ONE string, so its agreement checks
// (regular.ReadAcc's fast hit) compare pointers, not tables.
func (in *inflater) sawFull(sid int, p types.Pair) types.Pair {
	if p.Val == "" || p.TS.IsZero() {
		return p
	}
	i := 0
	for i < len(in.full) && in.full[i].pair != p {
		i++
	}
	if i == len(in.full) {
		in.full = append(in.full, shipped{pair: p})
	}
	f := &in.full[i]
	if f.from |= 1 << uint(sid); bits.OnesCount64(f.from) == in.known.confirm {
		in.known.Seed(f.pair)
	}
	return f.pair
}
