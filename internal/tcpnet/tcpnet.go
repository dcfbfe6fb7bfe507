// Package tcpnet runs the storage protocol over real TCP sockets: a Server
// exposes one storage object on a listener, and a Client implements
// proto.Rounder against a set of object addresses, so every register
// implementation in the repository runs unchanged across machines
// (cmd/storaged and cmd/storctl are the deployable binaries).
package tcpnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"robustatomic/internal/config"
	"robustatomic/internal/obs"
	"robustatomic/internal/persist"
	"robustatomic/internal/server"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

// Daemon-side observability: request mix, batched sub-round fan-in, bytes
// at the socket boundary, and fault-injection activity. Per-server register
// counts are callback gauges keyed by object id (see NewServerWith).
var (
	mSrvConns        = obs.Default.Gauge("tcpnet_server_conns")
	mSrvSingle       = obs.Default.Counter("tcpnet_server_requests_total")
	mSrvBatch        = obs.Default.Counter("tcpnet_server_batch_requests_total")
	mSrvBatchSubs    = obs.Default.Hist("tcpnet_server_batch_subs")
	mSrvChaosDropped = obs.Default.Counter("tcpnet_server_chaos_subs_dropped_total")
	mSrvLinkDropped  = obs.Default.Counter("tcpnet_server_link_dropped_total")
	mSrvRxBytes      = obs.Default.Counter("tcpnet_server_rx_bytes_total")
	mSrvTxBytes      = obs.Default.Counter("tcpnet_server_tx_bytes_total")
	mSrvCompactions  = obs.Default.Counter("tcpnet_server_compactions_total")
	mSrvStaleEpoch   = obs.Default.Counter("tcpnet_server_stale_epoch_total")
	mSrvOversize     = obs.Default.Counter("tcpnet_server_reply_oversize_total")
)

// Persister is the durability hook around the storage-object automaton: it
// recovers the hosted register instances at startup, logs every
// state-mutating request before the reply leaves, and supports the
// rotate/commit compaction cycle. *persist.Engine is the production
// implementation; tests may substitute fakes.
type Persister interface {
	// Recover reconstitutes the register instances from disk. Called once,
	// before the server accepts connections.
	Recover() (map[int]*server.Store, error)
	// Append durably logs one mutating request per the engine's fsync mode.
	Append(req wire.Request) error
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

var _ Persister = (*persist.Engine)(nil)

// ServerOptions configures the optional durability layer of a Server.
type ServerOptions struct {
	// DataDir is the durability directory. Empty means in-memory only —
	// exactly the pre-durability behavior.
	DataDir string
	// Fsync selects the WAL fsync policy (persist.FsyncBatch by default).
	Fsync persist.FsyncMode
	// Persist overrides the engine (tests, alternate engines). When set,
	// DataDir and Fsync are ignored.
	Persist Persister
	// CompactAt is the WAL size in bytes that triggers a snapshot+truncate
	// cycle. Default 1 MiB; negative disables automatic compaction.
	CompactAt int64
	// CompactEvery is the compaction poll period. Default 250ms.
	CompactEvery time.Duration
}

// Server serves one storage object over TCP. One object hosts any number of
// independent register instances (lazily instantiated, keyed by the Reg
// field of incoming requests), so a single daemon set backs a whole sharded
// multi-key Store. With a data directory configured, every state-mutating
// request is logged to a write-ahead log before the reply leaves and the
// instances are recovered on restart, so a crashed daemon resumes as a
// correct-but-slow object instead of an amnesiac one.
type Server struct {
	ID int

	lis     net.Listener
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	persist Persister
	opts    ServerOptions

	// applyMu orders WAL appends against compaction: every append+apply
	// pair runs under RLock, so under Lock the WAL holds no record whose
	// state change is still pending — a snapshot taken there covers every
	// sealed record (see Compact). compactMu serializes whole compaction
	// cycles (the background loop and explicit Compact calls).
	applyMu   sync.RWMutex
	compactMu sync.Mutex
	// Per-category warning latches: a compaction warning must not swallow
	// the later (and fatal) append-latch warning, or vice versa.
	warnAppend  sync.Once
	warnCompact sync.Once

	// Dynamic reconfiguration: activeEpoch is the epoch of the newest
	// configuration this object has seen land in its config register
	// (instance config.Reg); requests stamped with an older non-zero epoch
	// are refused with MsgWrongEpoch. epochHint (under mu) is that
	// configuration's encoded form, attached to refusals so redirected
	// clients can refetch without an extra round. Both re-derive from the
	// recovered config register at startup — the configuration is durable
	// because it lives in an ordinary register instance, covered by the
	// same WAL and snapshots as every shard.
	activeEpoch atomic.Uint64
	epochHint   types.Value

	mu       sync.Mutex
	stores   map[int]*server.Store
	behavior server.Behavior
	// Batch-level fault injection (SetBatchChaos): independent drop
	// probability per sub-reply, optional shuffle of the surviving
	// sub-replies within the response frame.
	batchRng     *rand.Rand
	batchDrop    float64
	batchShuffle bool
	// Link-level fault injection (SetPartitioned/SetNetem): requests dropped
	// before they reach the WAL or the automaton, replies delayed or
	// duplicated on the wire.
	partitioned bool
	netemRng    *rand.Rand
	netemDrop   float64
	netemDup    float64
	netemDelay  time.Duration
}

// NewServer starts serving object id on addr ("host:port"; ":0" picks a free
// port — use Addr to discover it) with no durability, exactly as before.
func NewServer(id int, addr string) (*Server, error) {
	return NewServerWith(id, addr, ServerOptions{})
}

// NewServerWith starts serving object id on addr with the given durability
// options. Recovery (snapshot load + WAL replay) completes before the
// listener accepts its first connection.
func NewServerWith(id int, addr string, opts ServerOptions) (*Server, error) {
	if opts.CompactAt == 0 {
		opts.CompactAt = 1 << 20
	}
	if opts.CompactEvery <= 0 {
		opts.CompactEvery = 250 * time.Millisecond
	}
	s := &Server{ID: id, opts: opts, stores: make(map[int]*server.Store)}
	if opts.Persist != nil {
		s.persist = opts.Persist
	} else if opts.DataDir != "" {
		eng, err := persist.Open(opts.DataDir, persist.Options{Mode: opts.Fsync})
		if err != nil {
			return nil, fmt.Errorf("tcpnet: %w", err)
		}
		s.persist = eng
	}
	if s.persist != nil {
		stores, err := s.persist.Recover()
		if err != nil {
			s.persist.Close()
			return nil, fmt.Errorf("tcpnet: recover: %w", err)
		}
		s.stores = stores
		s.refreshEpochLocked() // re-derive the active epoch from the recovered config register
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		if s.persist != nil {
			s.persist.Close()
		}
		return nil, fmt.Errorf("tcpnet: listen %s: %w", addr, err)
	}
	s.lis = lis
	s.ctx, s.cancel = context.WithCancel(context.Background())
	obs.Default.GaugeFunc(fmt.Sprintf("tcpnet_server_registers{id=\"%d\"}", id), func() int64 {
		return int64(s.Registers())
	})
	obs.Default.GaugeFunc(fmt.Sprintf("tcpnet_server_epoch{id=\"%d\"}", id), func() int64 {
		return int64(s.activeEpoch.Load())
	})
	s.wg.Add(1)
	go s.acceptLoop()
	if s.persist != nil && opts.CompactAt > 0 {
		s.wg.Add(1)
		go s.compactLoop()
	}
	return s, nil
}

// MaxRegisters bounds the register instances one object will host. Register
// instances are allocated on first touch from a client-supplied field, so an
// unbounded map would let a buggy client grow the daemon's heap without
// limit; past the cap (and for negative instances) the object stays silent,
// which correct protocols treat as a faulty object.
const MaxRegisters = 1 << 16

// Registers returns the number of register instances the object currently
// hosts (instrumentation).
func (s *Server) Registers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.stores)
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// SetBehavior injects a (Byzantine) behavior; nil restores honesty.
func (s *Server) SetBehavior(b server.Behavior) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.behavior = b
}

// SetBatchChaos injects batch-level faults: each sub-reply of a batched
// response is independently dropped with probability drop, and the
// surviving sub-replies are shuffled within the frame when shuffle is set
// (clients must route sub-bundles by register instance, not position). A
// nil rng disables batch chaos. Orthogonal to SetBehavior, which acts on
// individual messages.
func (s *Server) SetBatchChaos(rng *rand.Rand, drop float64, shuffle bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batchRng = rng
	s.batchDrop = drop
	s.batchShuffle = shuffle
}

// SetPartitioned cuts the object off the network (or heals it): inbound
// requests are dropped before they reach the WAL or the automaton, so —
// unlike server.Silent, which processes the message and withholds the reply
// — the object's state does not advance while partitioned. Connections stay
// open (the peer sees silence, then round timeouts), which is exactly what a
// filtering partition looks like from a client.
func (s *Server) SetPartitioned(partitioned bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.partitioned = partitioned
}

// SetNetem injects seeded link faults: each inbound request is dropped with
// probability drop (never processed — a lost datagram, not a Byzantine
// silence), each surviving reply is duplicated on the wire with probability
// dup (clients must dedupe by request id), and every reply is held back by
// delay before it is written. A nil rng clears drop/dup; delay applies
// regardless. Orthogonal to SetBehavior and SetBatchChaos — netem is the
// network, not the object.
func (s *Server) SetNetem(rng *rand.Rand, drop, dup float64, delay time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.netemRng = rng
	s.netemDrop = drop
	s.netemDup = dup
	s.netemDelay = delay
}

// linkVerdict samples the partition/netem state for one inbound request.
// The rng is shared across connection goroutines, hence the lock.
func (s *Server) linkVerdict() (drop, dup bool, delay time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.partitioned {
		return true, false, 0
	}
	if s.netemRng != nil {
		if s.netemDrop > 0 && s.netemRng.Float64() < s.netemDrop {
			return true, false, 0
		}
		dup = s.netemDup > 0 && s.netemRng.Float64() < s.netemDup
	}
	return false, dup, s.netemDelay
}

// Close stops the server, waits for its connections to drain, and seals the
// write-ahead log.
func (s *Server) Close() {
	obs.Default.Unregister(fmt.Sprintf("tcpnet_server_registers{id=\"%d\"}", s.ID))
	obs.Default.Unregister(fmt.Sprintf("tcpnet_server_epoch{id=\"%d\"}", s.ID))
	s.cancel()
	s.lis.Close()
	s.wg.Wait()
	if s.persist != nil {
		s.persist.Close()
	}
}

// Compact forces one snapshot+truncate cycle: mutations are quiesced while
// the WAL rotates and the state is captured, then the snapshot is committed
// under the rotated generation and superseded generations pruned. No-op
// without persistence.
func (s *Server) Compact() error {
	if s.persist == nil {
		return nil
	}
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.applyMu.Lock()
	gen, err := s.persist.Rotate()
	var snap []byte
	if err == nil {
		s.mu.Lock()
		snap, err = persist.EncodeStores(s.stores)
		s.mu.Unlock()
	}
	s.applyMu.Unlock()
	if err != nil {
		return err
	}
	if err := s.persist.Commit(gen, snap); err != nil {
		return err
	}
	mSrvCompactions.Inc()
	return nil
}

// compactLoop triggers compaction whenever the WAL outgrows the threshold.
func (s *Server) compactLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.CompactEvery)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
			if s.persist.WALSize() < s.opts.CompactAt {
				continue
			}
			if err := s.Compact(); err != nil {
				s.warnf(&s.warnCompact, "s%d: compaction: %v", s.ID, err)
			}
		}
	}
}

// warnf reports the first problem of a category once (persistent failures
// would otherwise spam stderr at request rate).
func (s *Server) warnf(once *sync.Once, format string, args ...any) {
	once.Do(func() {
		fmt.Fprintf(os.Stderr, "tcpnet: "+format+"\n", args...)
	})
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	mSrvConns.Inc()
	defer mSrvConns.Dec()
	go func() {
		<-s.ctx.Done()
		conn.Close()
	}()
	dec := wire.NewDecoder(countingReader{conn, mSrvRxBytes})
	enc := wire.NewEncoder(countingWriter{conn, mSrvTxBytes})
	for {
		req, err := dec.DecodeRequest()
		if err != nil {
			return
		}
		drop, dup, delay := s.linkVerdict()
		if drop {
			mSrvLinkDropped.Inc()
			continue // partitioned or netem-dropped: never processed
		}
		var rsp wire.Response
		var send bool
		if rsp, send = s.refuseStale(req); !send {
			if len(req.Subs) > 0 {
				mSrvBatch.Inc()
				mSrvBatchSubs.Record(int64(len(req.Subs)))
				rsp, send = s.handleBatch(req)
			} else {
				mSrvSingle.Inc()
				rsp, send = s.handleSingle(req)
			}
		}
		if !send {
			continue // withheld reply: the client sees silence
		}
		rsp.ID = req.ID
		rsp.Server = s.ID
		if delay > 0 {
			// The reply stalls on this connection's ordered stream — later
			// pipelined replies queue behind it, as real congestion would.
			t := time.NewTimer(delay)
			select {
			case <-t.C:
			case <-s.ctx.Done():
				t.Stop()
				return
			}
		}
		if err := enc.EncodeResponse(rsp); err != nil {
			if errors.Is(err, wire.ErrFrameTooLarge) {
				// Nothing was written, so the stream is intact: stay silent
				// for this request only. Every shard's pipelined requests
				// share this connection — closing it because one register's
				// state outgrew a frame would take all of them down with it,
				// again on every retry.
				mSrvOversize.Inc()
				continue
			}
			return
		}
		if dup {
			// Duplicated on the wire: the client's demux must drop the copy
			// (its request id has already been resolved).
			if err := enc.EncodeResponse(rsp); err != nil {
				return
			}
		}
	}
}

// handleSingle runs one single-register request to a response (send=false
// means the client sees silence).
func (s *Server) handleSingle(req wire.Request) (rsp wire.Response, send bool) {
	if req.Reg < 0 || req.Reg >= MaxRegisters {
		return rsp, false // invalid instance: the client sees silence
	}
	// Log state-mutating requests before the reply leaves: once a client
	// counts this object's ack toward a quorum, the state change must
	// survive a restart, or an honest crash becomes an amnesia fault and
	// silently burns the t-budget. The append+apply pair runs under the
	// apply read-lock so compaction (which holds the write lock) never
	// snapshots between a sealed record and its state change.
	mutating := s.persist != nil && server.Mutates(req.Msg)
	if mutating {
		s.applyMu.RLock()
		if err := s.persist.Append(req); err != nil {
			s.applyMu.RUnlock()
			// An unloggable mutation must not be acked or applied: the
			// client sees silence, indistinguishable from slowness.
			s.warnf(&s.warnAppend, "s%d: wal append: %v", s.ID, err)
			return rsp, false
		}
	}
	s.mu.Lock()
	b := s.behavior
	if b == nil {
		b = server.Honest{}
	}
	reply, ok := b.Reply(s.storeLocked(req.Reg), req.From, req.Msg)
	s.mu.Unlock()
	if mutating {
		s.applyMu.RUnlock()
	}
	if req.Reg == config.Reg && server.Mutates(req.Msg) {
		s.refreshEpoch()
	}
	if !ok {
		return rsp, false
	}
	reply.Seq = req.Msg.Seq
	rsp.Msg = reply
	return rsp, true
}

// handleBatch runs every sub-request of a batch against its own register
// instance in one pass. The whole batch is one received message (logged
// once, answered once); a sub-reply the behavior withholds is simply absent
// from the response, and a response with no surviving sub-replies is not
// sent at all (silence, like a withheld single reply).
func (s *Server) handleBatch(req wire.Request) (rsp wire.Response, send bool) {
	// Sanitize before logging: out-of-range instances must reach neither
	// the WAL nor the automata (the client sees silence for them).
	valid := req.Subs[:0:0]
	for _, sub := range req.Subs {
		if sub.Reg >= 0 && sub.Reg < MaxRegisters {
			valid = append(valid, sub)
		}
	}
	req.Subs = valid
	if len(req.Subs) == 0 {
		return rsp, false
	}
	mutating := false
	if s.persist != nil {
		for i := range req.Subs {
			if server.Mutates(req.Subs[i].Msg) {
				mutating = true
				break
			}
		}
	}
	if mutating {
		s.applyMu.RLock()
		if err := s.persist.Append(req); err != nil {
			s.applyMu.RUnlock()
			s.warnf(&s.warnAppend, "s%d: wal append: %v", s.ID, err)
			return rsp, false
		}
	}
	s.mu.Lock()
	b := s.behavior
	if b == nil {
		b = server.Honest{}
	}
	out := make([]wire.SubReq, 0, len(req.Subs))
	for _, sub := range req.Subs {
		reply, ok := b.Reply(s.storeLocked(sub.Reg), req.From, sub.Msg)
		if !ok {
			continue // withheld sub-reply: absent from the response
		}
		reply.Seq = sub.Msg.Seq
		out = append(out, wire.SubReq{Reg: sub.Reg, Msg: reply})
	}
	if s.batchRng != nil {
		if s.batchDrop > 0 {
			kept := out[:0]
			for _, sub := range out {
				if s.batchRng.Float64() >= s.batchDrop {
					kept = append(kept, sub)
				} else {
					mSrvChaosDropped.Inc()
				}
			}
			out = kept
		}
		if s.batchShuffle && len(out) > 1 {
			s.batchRng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		}
	}
	s.mu.Unlock()
	if mutating {
		s.applyMu.RUnlock()
	}
	for i := range req.Subs {
		if req.Subs[i].Reg == config.Reg && server.Mutates(req.Subs[i].Msg) {
			s.refreshEpoch()
			break
		}
	}
	if len(out) == 0 {
		return rsp, false
	}
	rsp.Subs = out
	return rsp, true
}

// storeLocked returns register instance reg's automaton, creating it on
// first touch. Callers must hold s.mu and have bounds-checked reg.
func (s *Server) storeLocked(reg int) *server.Store {
	st, found := s.stores[reg]
	if !found {
		st = server.NewStore()
		s.stores[reg] = st
	}
	return st
}

// Epoch returns the object's active configuration epoch (instrumentation
// and tests). Zero means no configuration has ever landed — the object
// accepts every stamp.
func (s *Server) Epoch() uint64 { return s.activeEpoch.Load() }

// refuseStale refuses a request from a superseded configuration epoch: a
// non-zero stamp below the active epoch gets a MsgWrongEpoch reply whose
// Pair carries the active epoch (TS.Seq) and the encoded active config
// (Val), so the client can refetch and retry against the new membership.
// Epoch 0 is the wildcard stamp (config-plane rounds, Direct operator
// connections, legacy clients) and stamps AHEAD of the object are accepted
// too — the object is the stale party there, and it catches up when the
// config write reaches it; refusing would deadlock the handoff. The check
// runs before the WAL sees the request: a refused mutation is never logged
// or applied.
func (s *Server) refuseStale(req wire.Request) (wire.Response, bool) {
	active := s.activeEpoch.Load()
	if req.Epoch == 0 || req.Epoch >= active {
		return wire.Response{}, false
	}
	mSrvStaleEpoch.Inc()
	s.mu.Lock()
	hint := s.epochHint
	s.mu.Unlock()
	return wire.Response{Msg: types.Message{
		Kind: types.MsgWrongEpoch,
		Pair: types.Pair{TS: types.TS{Seq: int64(active)}, Val: hint},
		Seq:  req.Msg.Seq,
	}}, true
}

// refreshEpoch re-derives the active epoch from the config register's
// written state. Called after any mutation touching instance config.Reg
// lands (and at recovery): when the decoded configuration's epoch exceeds
// the active one, the object adopts it and starts refusing older stamps.
// The epoch is monotone — a stale or Byzantine client writing an old
// config value cannot roll it back (the register's own timestamp order
// already prevents old pairs from overwriting new ones; this guard covers
// the window where only the prewrite landed).
func (s *Server) refreshEpoch() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshEpochLocked()
}

func (s *Server) refreshEpochLocked() {
	st, ok := s.stores[config.Reg]
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
	if cfg.Epoch > s.activeEpoch.Load() {
		s.activeEpoch.Store(cfg.Epoch)
		s.epochHint = w.Val
	}
}
