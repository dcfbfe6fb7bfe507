package server

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"robustatomic/internal/config"
	"robustatomic/internal/obs"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

// Fault-path activity of every Host in the process (the request mix is
// counted where a transport has frames to count: tcpnet.Server).
var (
	mLinkDropped = obs.Default.Counter("tcpnet_server_link_dropped_total")
	mStaleEpoch  = obs.Default.Counter("tcpnet_server_stale_epoch_total")
	mCompactions = obs.Default.Counter("tcpnet_server_compactions_total")
)

// MaxRegisters bounds the register instances one object will host. Register
// instances are allocated on first touch from a client-supplied field, so an
// unbounded map would let a buggy client grow the object's heap without
// limit; past the cap (and for negative instances) the object stays silent,
// which correct protocols treat as a faulty object.
const MaxRegisters = 1 << 16

// Persister is the durability hook around the storage-object automaton: it
// recovers the hosted register instances at startup, logs every
// state-mutating request before the reply leaves, and supports the
// rotate/commit compaction cycle. *persist.Engine is the production
// implementation; tests substitute fakes.
type Persister interface {
	// Recover reconstitutes the register instances from disk. Called once,
	// before the host serves its first request.
	Recover() (map[int]*Store, error)
	// Write appends one mutating request's record to the log and returns once
	// the operating system has it: a record's place in the log is the place of
	// its Write among the Writes, which is the order replay applies them in.
	Write(req wire.Request) error
	// Sync returns once every record written before the call is as durable as
	// the engine's fsync mode makes it; concurrent callers may share one fsync.
	Sync() error
	// WALSize reports the bytes in the live WAL generation (compaction
	// trigger input).
	WALSize() int64
	// Rotate seals the live WAL generation and returns the new one; the
	// caller quiesces mutations across Rotate and the subsequent state
	// capture, and passes the returned generation to Commit with it.
	Rotate() (uint64, error)
	// Commit durably installs the captured snapshot under its matching
	// generation and prunes the generations it supersedes.
	Commit(gen uint64, snap []byte) error
	// Close seals the log.
	Close() error
}

// Host is one storage object: the paper's automaton ("receive a message,
// reply before receiving any other") over any number of independent register
// instances (lazily instantiated, keyed by the Reg field of incoming
// requests), with everything a runtime needs around it — an installed
// (Byzantine) Behavior, link fault injection, the configuration epoch gate,
// and the write-ahead hook. It owns no goroutine, socket or
// clock: a transport hands it requests through Serve and carries out what
// Serve returns, so the TCP daemon, the in-memory link of an in-process
// cluster and the simulator's scripted link run the same object.
type Host struct {
	ID int

	persist Persister // nil = memory only

	// applyMu orders WAL appends against compaction: every append+apply
	// pair runs under RLock, so under Lock the WAL holds no record whose
	// state change is still pending — a snapshot taken there covers every
	// sealed record (see Compact). compactMu serializes whole compaction
	// cycles.
	applyMu    sync.RWMutex
	compactMu  sync.Mutex
	warnAppend sync.Once
	// Logged requests are applied in the order they were logged, whatever the
	// connections they came over and however long each waited for its fsync: a
	// conditioned write (types.Message.Have) applies or refuses by the state it
	// meets, so replay — which meets the log's order — must meet the one the
	// live object met. logMu makes a record's place in the log its ticket
	// (written, under logMu); applied (under mu) is the last ticket served, and
	// turn wakes those waiting for theirs.
	logMu   sync.Mutex
	written uint64
	applied uint64
	turn    sync.Cond

	// activeEpoch is the epoch of the newest configuration this object has
	// seen land in its config register (instance config.Reg); requests
	// stamped with an older non-zero epoch are refused with MsgWrongEpoch.
	// epochHint (under mu) is that configuration's encoded form, attached to
	// refusals so redirected clients can refetch without an extra round.
	// Both re-derive from the recovered config register at startup — the
	// configuration is durable because it lives in an ordinary register
	// instance, covered by the same WAL and snapshots as every shard.
	activeEpoch atomic.Uint64

	mu        sync.Mutex
	epochHint types.Value
	stores    map[int]*Store
	behavior  Behavior // nil = Honest
	// Link-level fault injection (SetPartitioned/SetNetem).
	partitioned bool
	netemRng    *rand.Rand
	netemDrop   float64
	netemDup    float64
	netemDelay  time.Duration
}

// NewHost returns object id. With a Persister, the register instances are
// recovered from it first (snapshot load + WAL replay) and every mutating
// request is logged through it before it is applied; the host owns p from
// here on (a failed recovery closes it).
func NewHost(id int, p Persister) (*Host, error) {
	h := &Host{ID: id, persist: p, stores: make(map[int]*Store)}
	h.turn.L = &h.mu
	if p != nil {
		stores, err := p.Recover()
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("server: recover: %w", err)
		}
		h.stores = stores
		h.refreshEpoch() // re-derive the active epoch from the recovered config register
	}
	return h, nil
}

// NewHosts returns objects 1..n, memory only — an in-process cluster.
func NewHosts(n int) []*Host {
	hosts := make([]*Host, n)
	for i := range hosts {
		hosts[i] = &Host{ID: i + 1, stores: make(map[int]*Store)}
	}
	return hosts
}

// Close seals the write-ahead log, if any.
func (h *Host) Close() error {
	if h.persist == nil {
		return nil
	}
	return h.persist.Close()
}

// Registers returns the number of register instances the object currently
// hosts (instrumentation).
func (h *Host) Registers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.stores)
}

// Store returns register instance reg's automaton (created on first touch),
// for the simulator's adversaries to snapshot and forge and tests to inspect.
func (h *Host) Store(reg int) *Store {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.storeLocked(reg)
}

// Epoch returns the object's active configuration epoch (instrumentation
// and tests). Zero means no configuration has ever landed — the object
// accepts every stamp.
func (h *Host) Epoch() uint64 { return h.activeEpoch.Load() }

// SetBehavior injects a (Byzantine) behavior; nil restores honesty.
func (h *Host) SetBehavior(b Behavior) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.behavior = b
}

// SetPartitioned cuts the object off the network (or heals it): inbound
// requests are dropped before they reach the WAL or the automaton, so —
// unlike Silent, which processes the message and withholds the reply — the
// object's state does not advance while partitioned, exactly as if the
// messages were lost in transit.
func (h *Host) SetPartitioned(partitioned bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.partitioned = partitioned
}

// SetNetem injects seeded link faults: each inbound request is dropped with
// probability drop (never processed — a lost datagram, not a Byzantine
// silence), each surviving reply is to be delivered twice with probability
// dup (the client side must dedupe), and every reply held back by delay. A
// nil rng clears drop/dup; delay applies regardless. Orthogonal to
// SetBehavior — netem is the network, not the object.
func (h *Host) SetNetem(rng *rand.Rand, drop, dup float64, delay time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.netemRng, h.netemDrop, h.netemDup, h.netemDelay = rng, drop, dup, delay
}

// Serve runs one request to its response — the object's whole step. send
// false means the client sees silence: the link lost the request (never
// logged, never applied), the request named no valid register instance, the
// log refused it, or the behavior withheld every reply. Otherwise the caller
// stamps nothing further — rsp carries the request's ID and the object's id
// — and delivers rsp after delay, twice when dup is set. The delay is
// returned, not slept: Serve never blocks on anything but the log — its fsync,
// and the requests logged ahead of this one.
//
// A single-register request is a batch of one: both forms take the same path
// through the epoch gate, the sanitizer, the log and the behavior — asked once
// per sub-request, so Flaky drops sub-replies out of a batch — and differ only
// in where the reply is put.
func (h *Host) Serve(req wire.Request) (rsp wire.Response, send, dup bool, delay time.Duration) {
	h.mu.Lock()
	drop := h.partitioned
	if !drop && h.netemRng != nil {
		drop = h.netemDrop > 0 && h.netemRng.Float64() < h.netemDrop
		dup = !drop && h.netemDup > 0 && h.netemRng.Float64() < h.netemDup
	}
	delay = h.netemDelay
	h.mu.Unlock()
	if drop {
		mLinkDropped.Inc()
		return rsp, false, false, 0
	}
	rsp.ID, rsp.Server = req.ID, h.ID
	single := len(req.Subs) == 0
	subs := req.Subs
	if single {
		subs = []wire.SubReq{{Reg: req.Reg, Msg: req.Msg}}
	}
	if h.refuseStale(req.Epoch, subs[0].Msg.Seq, &rsp) {
		return rsp, true, dup, delay
	}
	// Sanitize before logging: out-of-range instances must reach neither
	// the WAL nor the automata (the client sees silence for them).
	for i := range subs {
		if subs[i].Reg < 0 || subs[i].Reg >= MaxRegisters {
			valid := append(make([]wire.SubReq, 0, len(subs)-1), subs[:i]...)
			for _, sub := range subs[i+1:] {
				if sub.Reg >= 0 && sub.Reg < MaxRegisters {
					valid = append(valid, sub)
				}
			}
			subs, req.Subs = valid, valid
			break
		}
	}
	if len(subs) == 0 {
		return rsp, false, false, 0
	}
	mutating, reconfig := false, false
	for i := range subs {
		if Mutates(subs[i].Msg) {
			mutating = true
			reconfig = reconfig || subs[i].Reg == config.Reg
		}
	}
	// Log state-mutating requests before the reply leaves: once a client
	// counts this object's ack toward a quorum, the state change must
	// survive a restart, or an honest crash becomes an amnesia fault and
	// silently burns the t-budget. The append+apply pair runs under the
	// apply read-lock so compaction (which holds the write lock) never
	// snapshots between a sealed record and its state change; the record is
	// durable (Sync) before its state change is visible to anyone, and the
	// state changes happen in the records' order (ticket).
	logged := mutating && h.persist != nil
	var ticket uint64
	var logErr error
	if logged {
		h.applyMu.RLock()
		h.logMu.Lock()
		if logErr = h.persist.Write(req); logErr == nil {
			h.written++
			ticket = h.written
		}
		h.logMu.Unlock()
		if logErr == nil {
			logErr = h.persist.Sync()
		}
	}
	h.mu.Lock()
	if ticket != 0 {
		for h.applied != ticket-1 {
			h.turn.Wait()
		}
		h.applied = ticket // mu is held until the request is applied
		h.turn.Broadcast()
	}
	if logErr != nil {
		h.mu.Unlock()
		h.applyMu.RUnlock()
		// An unloggable mutation must not be acked or applied: the client
		// sees silence, indistinguishable from slowness.
		h.warnAppend.Do(func() { fmt.Fprintf(os.Stderr, "server: s%d: wal append: %v\n", h.ID, logErr) })
		return rsp, false, false, 0
	}
	b := h.behavior
	if b == nil {
		b = Honest{}
	}
	if !single {
		rsp.Subs = make([]wire.SubReq, 0, len(subs))
	}
	for i := range subs {
		reply, ok := b.Reply(h.storeLocked(subs[i].Reg), req.From, subs[i].Msg)
		if !ok {
			continue // withheld sub-reply: absent from the response
		}
		reply.Seq = subs[i].Msg.Seq
		if single {
			rsp.Msg, send = reply, true
		} else {
			rsp.Subs = append(rsp.Subs, wire.SubReq{Reg: subs[i].Reg, Msg: reply})
		}
	}
	if reconfig {
		h.refreshEpoch()
	}
	h.mu.Unlock()
	if logged {
		h.applyMu.RUnlock()
	}
	// A response with no surviving sub-replies is not sent at all.
	send = send || len(rsp.Subs) > 0
	return rsp, send, send && dup, delay
}

// storeLocked returns register instance reg's automaton, creating it on
// first touch. Callers hold h.mu and have bounds-checked reg.
func (h *Host) storeLocked(reg int) *Store {
	st, found := h.stores[reg]
	if !found {
		st = NewStore()
		h.stores[reg] = st
	}
	return st
}

// refuseStale refuses a request from a superseded configuration epoch: a
// non-zero stamp below the active epoch gets a MsgWrongEpoch reply whose
// Pair carries the active epoch (TS.Seq) and the encoded active config
// (Val), so the client can refetch and retry against the new membership.
// Epoch 0 is the wildcard stamp (config-plane rounds, Direct operator
// connections) and stamps AHEAD of the object are accepted too — the object
// is the stale party there, and it catches up when the config write reaches
// it; refusing would deadlock the handoff. The check runs before the WAL
// sees the request: a refused mutation is never logged or applied.
func (h *Host) refuseStale(epoch uint64, seq int, rsp *wire.Response) bool {
	active := h.activeEpoch.Load()
	if epoch == 0 || epoch >= active {
		return false
	}
	mStaleEpoch.Inc()
	h.mu.Lock()
	hint := h.epochHint
	h.mu.Unlock()
	rsp.Msg = types.Message{
		Kind: types.MsgWrongEpoch,
		Pair: types.Pair{TS: types.TS{Seq: int64(active)}, Val: hint},
		Seq:  seq,
	}
	return true
}

// refreshEpoch re-derives the active epoch from the config register's
// written state. Called (under h.mu, or before the host is shared) after
// any mutation touching instance config.Reg lands, and at recovery: when
// the decoded configuration's epoch exceeds the active one, the object
// adopts it and starts refusing older stamps. The epoch is monotone — a
// stale or Byzantine client writing an old config value cannot roll it back
// (the register's own timestamp order already prevents old pairs from
// overwriting new ones; this guard covers the window where only the
// prewrite landed).
func (h *Host) refreshEpoch() {
	st, ok := h.stores[config.Reg]
	if !ok {
		return
	}
	w := st.Reg(types.WriterReg).W
	if w.Val.IsBottom() {
		return
	}
	cfg, err := config.Decode(w.Val)
	if err != nil {
		return // unparseable config value: keep the last good epoch
	}
	if cfg.Epoch > h.activeEpoch.Load() {
		h.activeEpoch.Store(cfg.Epoch)
		h.epochHint = w.Val
	}
}

// Compact forces one snapshot+truncate cycle: mutations are quiesced while
// the WAL rotates and the state is captured, then the snapshot is committed
// under the rotated generation and superseded generations pruned. No-op
// without persistence.
func (h *Host) Compact() error {
	if h.persist == nil {
		return nil
	}
	h.compactMu.Lock()
	defer h.compactMu.Unlock()
	h.applyMu.Lock()
	gen, err := h.persist.Rotate()
	var snap []byte
	if err == nil {
		h.mu.Lock()
		snap, err = EncodeStores(h.stores)
		h.mu.Unlock()
	}
	h.applyMu.Unlock()
	if err != nil {
		return err
	}
	if err := h.persist.Commit(gen, snap); err != nil {
		return err
	}
	mCompactions.Inc()
	return nil
}

// storesVersion heads the multi-register snapshot payload: a uvarint
// register-instance count, then per instance a uvarint instance number and
// a length-prefixed Store snapshot.
const storesVersion = 0x01

// EncodeStores captures every hosted register instance into one snapshot
// payload. Callers must quiesce mutations across the call (Host.Compact
// holds its apply lock); the capture itself is cheap — the store snapshot
// codec neither sorts nor reflects.
func EncodeStores(stores map[int]*Store) ([]byte, error) {
	regs := make([]int, 0, len(stores))
	size := 1 + binary.MaxVarintLen64
	for reg, st := range stores {
		regs = append(regs, reg)
		size += 2*binary.MaxVarintLen64 + st.snapshotBound()
	}
	sort.Ints(regs)
	// Sized once: every instance appends into the one buffer, its length
	// prefix written — in its widest form's room — before its size is known.
	b := append(make([]byte, 0, size), storesVersion)
	b = binary.AppendUvarint(b, uint64(len(regs)))
	for _, reg := range regs {
		b = binary.AppendUvarint(b, uint64(reg))
		at := len(b)
		b = stores[reg].AppendSnapshot(append(b, make([]byte, binary.MaxVarintLen64)...))
		snap := b[at+binary.MaxVarintLen64:]
		b = append(binary.AppendUvarint(b[:at], uint64(len(snap))), snap...)
	}
	return b, nil
}

// DecodeStores rebuilds register instances from a snapshot payload into
// dst.
func DecodeStores(payload []byte, dst map[int]*Store) error {
	if len(payload) == 0 || payload[0] != storesVersion {
		return fmt.Errorf("server: snapshot payload: bad header")
	}
	rest := payload[1:]
	n, w := binary.Uvarint(rest)
	if w <= 0 {
		return fmt.Errorf("server: snapshot payload: truncated count")
	}
	rest = rest[w:]
	for i := uint64(0); i < n; i++ {
		reg, w := binary.Uvarint(rest)
		if w <= 0 {
			return fmt.Errorf("server: snapshot payload: truncated instance %d", i)
		}
		rest = rest[w:]
		size, w := binary.Uvarint(rest)
		if w <= 0 || uint64(len(rest)-w) < size {
			return fmt.Errorf("server: snapshot payload: truncated instance %d body", i)
		}
		st := NewStore()
		if err := st.Restore(rest[w : w+int(size)]); err != nil {
			return fmt.Errorf("server: instance %d: %w", reg, err)
		}
		dst[int(reg)] = st
		rest = rest[w+int(size):]
	}
	if len(rest) != 0 {
		return fmt.Errorf("server: snapshot payload: %d trailing bytes", len(rest))
	}
	return nil
}
