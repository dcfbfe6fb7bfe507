// The multiplexed client transport (wire generations 3+).
//
// A Mux owns one link per storage object and pipelines any number of
// concurrent protocol rounds over it. The link is a TCP connection to a
// daemon, or — for an in-process cluster — the object's server.Host itself
// (memlink.go); Mux.send is the one seam between Mux.round and either.
// Per connection there are exactly two goroutines: a writer that owns the
// encoder and drains a send queue (greedily, flushing once the queue runs
// dry, so a burst of requests coalesces into few syscalls), and a reader that
// decodes responses and routes each to its waiter by the request ID the frame
// carries. Rounds register one waiter per request before it is enqueued and
// deregister whatever they still own when they return, so:
//
//   - replies complete out of order (the demux table, not FIFO, matches them);
//   - a reply for an abandoned waiter (timed-out round) finds no table entry
//     and is dropped without blocking the reader or leaking the slot;
//   - connection loss fails all of that connection's in-flight waiters with
//     ErrConnLost immediately instead of letting them burn their deadlines.
//
// Waiter delivery can never block: a round's reply channel has capacity for
// every waiter the round registered, and each waiter delivers at most once
// (it is removed from the table before the send). The dial state machine:
// first contact (and first contact after an established connection drops)
// dials synchronously, a failed dial puts the object in a 1s backoff window
// during which rounds skip it, and after the window redials run in the
// background.
package tcpnet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"robustatomic/internal/obs"
	"robustatomic/internal/proto"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

// Client-transport observability. The in-flight gauge moves with the waiter
// table (registered on send, released on delivery/abandon/teardown), so it
// is the live pipelining depth across every connection of the process.
var (
	mMuxInFlight  = obs.Default.Gauge("tcpnet_inflight_waiters")
	mMuxConnLost  = obs.Default.Counter("tcpnet_conn_lost_total")
	mMuxTimeouts  = obs.Default.Counter("tcpnet_round_timeout_total")
	mMuxUnsat     = obs.Default.Counter("tcpnet_round_unsat_total")
	mMuxDials     = obs.Default.Counter("tcpnet_dials_total")
	mMuxRedials   = obs.Default.Counter("tcpnet_redials_total")
	mMuxDialFails = obs.Default.Counter("tcpnet_dial_fail_total")
	mMuxTxBytes   = obs.Default.Counter("tcpnet_client_tx_bytes_total")
	mMuxRxBytes   = obs.Default.Counter("tcpnet_client_rx_bytes_total")
	mMuxBatchSubs = obs.Default.Hist("tcpnet_client_batch_subs")
)

// countingWriter / countingReader tally frame bytes at the buffer boundary:
// one atomic add per flush / per buffered fill, not per frame.
type countingWriter struct {
	w io.Writer
	c *obs.Counter
}

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.c.Add(int64(n))
	return n, err
}

type countingReader struct {
	r io.Reader
	c *obs.Counter
}

func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.c.Add(int64(n))
	return n, err
}

// ErrRoundTimeout is returned when a round cannot gather sufficient replies.
var ErrRoundTimeout = errors.New("tcpnet: round timed out")

// ErrConnLost is the distinct failure of in-flight requests whose
// connection died (peer reset, encode error, dropConn): rounds observe it
// immediately, well before their deadline, and can tell a lost connection
// from a slow quorum.
var ErrConnLost = errors.New("tcpnet: connection lost with requests in flight")

// ErrWrongEpoch is the sentinel every WrongEpochError wraps: the round was
// refused by objects whose active configuration supersedes the client's.
// The remedy is a config refetch and a retry — not a backoff.
var ErrWrongEpoch = errors.New("tcpnet: request epoch superseded by a newer configuration")

// WrongEpochError reports a round refused for carrying a stale
// configuration epoch. Epoch is the newest active epoch any refusing
// object reported and Hints their encoded configurations
// (config.Decode-able) — redirect hints only: a Byzantine object can
// fabricate both, so callers must certify a hint by quorum (or re-read the
// config register) before trusting it.
type WrongEpochError struct {
	Label string
	Epoch uint64
	Hints []types.Value
	// Cause is the failure the round would have reported had no refusal
	// arrived — set only when fewer than t+1 objects refused yet the quorum
	// was still denied (connection losses, or an accumulator no further
	// reply can satisfy). In that ambiguous mix the refusals alone do not
	// prove a newer configuration exists: callers whose config refetch
	// finds nothing newer should fall back to Cause (ErrConnLost /
	// ErrRoundTimeout — both retryable) so a lone Byzantine forgery cannot
	// upgrade a transient failure into a hard error. Nil when > t refusals
	// prove the redirect. Deliberately NOT exposed via Unwrap: the error
	// classifies as Reconfig (refetch first), not Transient.
	Cause error
}

// Error implements error.
func (e *WrongEpochError) Error() string {
	return fmt.Sprintf("%v: %s: objects report active epoch %d", ErrWrongEpoch, e.Label, e.Epoch)
}

// Unwrap makes errors.Is(err, ErrWrongEpoch) hold.
func (e *WrongEpochError) Unwrap() error { return ErrWrongEpoch }

// errClientClosed is returned by rounds after Close.
var errClientClosed = errors.New("tcpnet: client closed")

// errNoReply resolves a request whose link knows no reply will ever come
// (the in-memory link: a lost request, a withheld reply). Never returned
// from a round: a round all of whose requests resolved without satisfying
// its accumulator fails as unsatisfiable, at once.
var errNoReply = errors.New("tcpnet: no reply")

// errDialPending is returned by connFor while a (re)dial is in flight.
var errDialPending = errors.New("tcpnet: dial in progress")

// errObjectDown is returned by connFor while a recently-failed object is in
// its redial backoff window.
var errObjectDown = errors.New("tcpnet: object unreachable, in dial backoff")

// errSlotVacant is returned by connFor for a slot the active configuration
// leaves vacant (a departed object): no dial, no backoff state — the slot
// simply counts as faulty until a join fills it.
var errSlotVacant = errors.New("tcpnet: configuration slot vacant")

// dialTimeout bounds one connection attempt.
const dialTimeout = 2 * time.Second

// DialBackoff is how long after a failed dial the client waits before
// trying that object again. During the window, rounds skip the object
// immediately instead of stalling on a fresh dial — one unreachable object
// must not add dial latency to every round. (Exported so restart drills
// can wait out exactly this window.)
const DialBackoff = 1 * time.Second

// closeLinger bounds how long Close waits for an object to take the queued
// frames and hang up.
const closeLinger = time.Second

// sendQueueDepth is the per-connection send queue; senders beyond it block
// (backpressure) until the writer drains.
const sendQueueDepth = 128

// Mux is the multiplexed transport to a set of object addresses
// (addresses[i] serves object i+1). Any number of Clients — and any number
// of concurrent rounds — share it; thousands of register operations share
// one connection per daemon.
//
// The address set is the mux's view of the active configuration and may
// change at runtime (Reconfigure): the slot count S is fixed for the mux's
// lifetime, but a slot's address can be swapped or vacated as the cluster
// reconfigures. Every request is stamped with the configuration epoch the
// mux holds; objects refuse stale stamps with MsgWrongEpoch and rounds
// surface that as a WrongEpochError, which the cluster layer answers with
// a config refetch + Reconfigure + retry.
type Mux struct {
	*Process          // what the rounds share: epoch, scoreboard, request ids (round.go)
	mem      *memLink // non-nil: the objects are in this process (memlink.go)

	mu     sync.Mutex
	addrs  []string // slot sid-1 → address; "" = vacant (guarded by mu)
	conns  []*muxConn
	dials  []dialState
	closed bool
	done   chan struct{} // closed by Close
}

// dialState tracks one object's connection attempts. A zero failedAt means
// the next attempt dials synchronously (first contact, or after an
// established connection dropped — the common case of a healthy peer);
// after a failed dial, retries run in the background at most once per
// backoff window so rounds never block on a dead peer.
type dialState struct {
	failedAt time.Time
	inflight bool
	// syncDone is non-nil while a synchronous dial is in flight; concurrent
	// rounds sharing the mux wait on it instead of skipping a peer that is a
	// few microseconds from connected.
	syncDone chan struct{}
}

// muxConn is one live connection and its demux state.
type muxConn struct {
	sid    int
	conn   net.Conn
	sendCh chan wire.Request
	down   chan struct{} // closed on teardown
	closer sync.Once

	mu      sync.Mutex
	dead    bool
	waiters map[uint64]chan muxReply
}

// muxReply is what the demux delivers to a round: a decoded response (with
// the server identity pinned to the connection it arrived on) or the
// failure of the request's connection.
type muxReply struct {
	sid  int
	msg  types.Message
	subs []wire.SubReq
	err  error
}

// NewMux returns a Mux over the daemons at addrs.
func NewMux(addrs []string) *Mux {
	return &Mux{
		Process: NewProcess(len(addrs)),
		addrs:   append([]string(nil), addrs...),
		conns:   make([]*muxConn, len(addrs)),
		dials:   make([]dialState, len(addrs)),
		done:    make(chan struct{}),
	}
}

// Addrs returns a copy of the mux's current address view (slot sid-1 →
// address, "" for vacant slots).
func (m *Mux) Addrs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.addrs...)
}

// Reconfigure installs a newer configuration: the mux adopts the epoch,
// swaps its address view, and for every slot whose address changed tears
// down the old connection and drops the slot's backoff latch — a departed
// daemon must not keep an eternal redial loop (or its backoff latch)
// alive, nor delay the replacement's first dial. A dial already in flight
// for the old address is left to finish on its own (its outcome is
// discarded by the stale-address guard); clobbering its marker here would
// race a second dial onto the slot and panic the first dialer's channel
// close. Connections on unchanged slots are untouched; in-flight rounds on
// a torn-down slot fail with ErrConnLost and retry against the new
// address. A stale call (epoch not newer than the mux's) is a no-op, so
// racing refetches converge on the newest configuration.
func (m *Mux) Reconfigure(epoch uint64, addrs []string) error {
	if len(addrs) != m.n {
		return fmt.Errorf("tcpnet: reconfigure with %d slots, mux has %d (S is fixed)", len(addrs), m.n)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return errClientClosed
	}
	if epoch <= m.epoch.Load() {
		m.mu.Unlock()
		return nil
	}
	m.epoch.Store(epoch)
	var drop []*muxConn
	for i := range addrs {
		if m.addrs[i] == addrs[i] {
			continue
		}
		m.addrs[i] = addrs[i]
		m.susp.reset(i + 1) // a replacement must not inherit its predecessor's record
		if mc := m.conns[i]; mc != nil {
			// Detach under the lock: no round may resolve the departed
			// daemon's connection once the new address view is visible (its
			// replies must never count for the reconfigured slot).
			m.conns[i] = nil
			drop = append(drop, mc)
		}
		// Drop only the backoff latch: the departed address must not delay
		// the new one's first dial. The inflight/syncDone fields are
		// preserved — a dial in flight for the old address still owns the
		// slot's dial marker and clears it itself when it completes (the
		// stale-address guard in installLocked discards its outcome).
		// Zeroing them here would let a second dial start concurrently and
		// would yank the channel the first dialer is about to close.
		m.dials[i].failedAt = time.Time{}
	}
	m.mu.Unlock()
	for _, mc := range drop {
		m.teardown(mc, fmt.Errorf("%w (s%d reconfigured away)", ErrConnLost, mc.sid))
	}
	return nil
}

// Close interrupts every in-flight round and closes every connection, once
// what rounds already handed to it has reached its object: a round returns
// on S−t acks, so the last frames to the slowest t objects are often still
// queued here, and dropping them would leave those objects behind for good.
// Each writer drains its queue and half-closes, the object reads to EOF and
// hangs up, the reader sees that and tears the connection down; an object
// that does not play along is cut off after closeLinger.
func (m *Mux) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	close(m.done)
	conns := append([]*muxConn(nil), m.conns...)
	m.mu.Unlock()
	linger := time.Now().Add(closeLinger)
	for _, mc := range conns {
		if mc != nil {
			mc.conn.SetDeadline(linger) // bounds a flush already blocked, the drain and the wait for EOF
		}
	}
	for _, mc := range conns {
		if mc != nil {
			<-mc.down
		}
	}
	if m.mem != nil {
		m.mem.wg.Wait() // delayed deliveries watch done
	}
}

// Client returns a round executor for proc against register instance reg,
// sharing this Mux's connections with every other handle.
func (m *Mux) Client(proc types.ProcID, reg int) *Client {
	return &Client{Proc: proc, RoundTimeout: 5 * time.Second, mux: m, reg: reg}
}

// connFor returns the live connection to object sid, dialing if needed
// (see dialState for the synchronous/backoff/background policy).
func (m *Mux) connFor(sid int) (*muxConn, error) {
	for {
		mc, wait, err := m.connOrWait(sid)
		if wait == nil {
			return mc, err
		}
		<-wait // a synchronous dial is in flight; adopt its outcome
	}
}

// connOrWait is connFor's locked step: it returns a connection, an error,
// or a channel to wait on while another round's synchronous dial completes.
func (m *Mux) connOrWait(sid int) (*muxConn, <-chan struct{}, error) {
	m.mu.Lock()
	if mc := m.conns[sid-1]; mc != nil {
		m.mu.Unlock()
		return mc, nil, nil
	}
	if m.closed {
		m.mu.Unlock()
		return nil, nil, errClientClosed
	}
	addr := m.addrs[sid-1]
	if addr == "" {
		// The active configuration leaves this slot vacant: nothing to
		// dial, no backoff state to keep — the slot counts as faulty until
		// a join fills it (Reconfigure clears the state then).
		m.mu.Unlock()
		return nil, nil, errSlotVacant
	}
	ds := &m.dials[sid-1]
	if ds.inflight {
		wait := ds.syncDone
		m.mu.Unlock()
		if wait != nil {
			return nil, wait, nil
		}
		return nil, nil, errDialPending
	}
	if ds.failedAt.IsZero() {
		done := make(chan struct{})
		ds.inflight = true
		ds.syncDone = done
		m.mu.Unlock()
		mMuxDials.Inc()
		conn, err := net.DialTimeout("tcp", addr, dialTimeout)
		m.mu.Lock()
		// Close the captured channel, never the shared field: if some reset
		// replaced the slot's dial state while we dialed, ds.syncDone is no
		// longer ours to close (or clear) — closing a nil or foreign channel
		// would panic every round on the mux.
		if ds.syncDone == done {
			ds.inflight = false
			ds.syncDone = nil
		}
		mc, installErr := m.installLocked(sid, addr, conn, err)
		m.mu.Unlock()
		close(done)
		if installErr != nil {
			return nil, nil, fmt.Errorf("tcpnet: dial s%d: %w", sid, installErr)
		}
		return mc, nil, nil
	}
	if time.Since(ds.failedAt) < DialBackoff {
		m.mu.Unlock()
		return nil, nil, errObjectDown
	}
	// Backoff expired: retry in the background; this round still skips the
	// object, the next one uses the connection if the dial succeeded.
	ds.inflight = true
	go func() {
		mMuxRedials.Inc()
		conn, err := net.DialTimeout("tcp", addr, dialTimeout)
		m.mu.Lock()
		ds.inflight = false
		m.installLocked(sid, addr, conn, err)
		m.mu.Unlock()
	}()
	m.mu.Unlock()
	return nil, nil, errDialPending
}

// installLocked records the outcome of a dial attempt (under m.mu): on
// success it installs the connection and starts its writer and reader
// goroutines. addr is the address the dial actually targeted — if a
// Reconfigure swapped the slot while the dial was in flight, the outcome
// belongs to a departed daemon and is discarded (neither the connection
// nor a failure's backoff latch may leak into the new address's state).
func (m *Mux) installLocked(sid int, addr string, conn net.Conn, err error) (*muxConn, error) {
	if m.addrs[sid-1] != addr {
		if conn != nil {
			conn.Close()
		}
		return nil, errObjectDown
	}
	ds := &m.dials[sid-1]
	if err != nil {
		mMuxDialFails.Inc()
		ds.failedAt = time.Now()
		return nil, err
	}
	if m.closed {
		conn.Close()
		return nil, errClientClosed
	}
	if mc := m.conns[sid-1]; mc != nil {
		// A connection is already installed (racing dials after a
		// reconfigure cleared the slot's dial state): keep it.
		conn.Close()
		return mc, nil
	}
	ds.failedAt = time.Time{}
	mc := &muxConn{
		sid:     sid,
		conn:    conn,
		sendCh:  make(chan wire.Request, sendQueueDepth),
		down:    make(chan struct{}),
		waiters: make(map[uint64]chan muxReply),
	}
	m.conns[sid-1] = mc
	go m.writeLoop(mc)
	go m.readLoop(mc)
	return mc, nil
}

// teardown kills one connection: the socket closes, the conn detaches from
// the table with its dial state reset (an established connection died — the
// peer is probably still up, so the next round dials synchronously; if it
// is not, that dial's failure opens the backoff window), and every
// in-flight waiter fails with err. Idempotent — the reader, the writer
// and dropConn may race into it.
func (m *Mux) teardown(mc *muxConn, err error) {
	mc.closer.Do(func() {
		close(mc.down)
		mc.conn.Close()
	})
	m.mu.Lock()
	if m.conns[mc.sid-1] == mc {
		m.conns[mc.sid-1] = nil
		m.dials[mc.sid-1] = dialState{}
	}
	m.mu.Unlock()
	mc.mu.Lock()
	ws := mc.waiters
	mc.waiters = nil
	mc.dead = true
	mc.mu.Unlock()
	select {
	case <-m.done: // Close: the connection was not lost, it was given up
	default:
		mMuxConnLost.Inc()
	}
	mMuxInFlight.Add(-int64(len(ws)))
	for _, ch := range ws {
		ch <- muxReply{sid: mc.sid, err: err}
	}
}

// writeLoop owns the connection's encoder: it drains the send queue
// greedily into a buffered writer and flushes when the queue runs dry, so
// pipelined bursts cost few syscalls.
func (m *Mux) writeLoop(mc *muxConn) {
	bw := bufio.NewWriterSize(countingWriter{mc.conn, mMuxTxBytes}, 64<<10)
	enc := wire.NewEncoder(bw)
	// drain encodes whatever is queued, then flushes.
	drain := func() error {
		for {
			select {
			case req := <-mc.sendCh:
				if err := enc.EncodeRequest(req); err != nil {
					return err
				}
			default:
				return bw.Flush()
			}
		}
	}
	for {
		select {
		case req := <-mc.sendCh:
			err := enc.EncodeRequest(req)
			if err == nil {
				err = drain()
			}
			if err != nil {
				m.teardown(mc, fmt.Errorf("%w (send s%d: %v)", ErrConnLost, mc.sid, err))
				return
			}
		case <-mc.down:
			return
		case <-m.done:
			// Close: send what is queued, then EOF; the reader does the rest.
			if drain() != nil || mc.conn.(*net.TCPConn).CloseWrite() != nil {
				m.teardown(mc, errClientClosed)
			}
			return
		}
	}
}

// readLoop decodes responses and routes each to its waiter by request ID.
// The object's identity is the connection it answered on, not the Server
// field it claims: a Byzantine daemon must not be able to cast votes as
// some other (correct) object. A response whose ID has no waiter — the
// round timed out and deregistered, or the peer forged an ID — is dropped
// on the spot; delivery to a live waiter cannot block (see the package
// comment), so one slow round never stalls the demux.
func (m *Mux) readLoop(mc *muxConn) {
	dec := wire.NewDecoder(countingReader{mc.conn, mMuxRxBytes})
	for {
		rsp, err := dec.DecodeResponse()
		if err != nil {
			m.teardown(mc, fmt.Errorf("%w (recv s%d: %v)", ErrConnLost, mc.sid, err))
			return
		}
		mc.mu.Lock()
		ch, ok := mc.waiters[rsp.ID]
		if ok {
			delete(mc.waiters, rsp.ID)
		}
		mc.mu.Unlock()
		if !ok {
			continue // abandoned or forged ID: discarded, slot already freed
		}
		mMuxInFlight.Dec()
		ch <- muxReply{sid: mc.sid, msg: rsp.Msg, subs: rsp.Subs}
	}
}

// send is the one seam between the round loop and a link: it hands req to
// object sid and arranges that replyCh receives EXACTLY ONE muxReply for it
// — the object's response (a duplicate is dropped here, never delivered),
// the link's failure, or errNoReply where the link can tell that none will
// come — or nothing at all while a reply may still arrive. Delivery never
// blocks (the round sized replyCh for every request it sends). A nil
// replyCh sends fire-and-forget: the object receives the request, whatever
// it answers is dropped. Over TCP that means: register the round's waiter
// for req.ID and enqueue the request on the connection, dialing it first if
// needed; the returned connection is where the round deregisters a waiter
// it abandons (nil: nothing to deregister).
func (m *Mux) send(sid int, req wire.Request, replyCh chan muxReply) (*muxConn, error) {
	if m.mem != nil {
		return nil, m.mem.send(m, sid, req, replyCh)
	}
	mc, err := m.connFor(sid)
	if err != nil {
		return nil, err
	}
	if replyCh != nil {
		mc.mu.Lock()
		if mc.dead {
			mc.mu.Unlock()
			return nil, ErrConnLost
		}
		mc.waiters[req.ID] = replyCh
		mMuxInFlight.Inc() // inside the lock: teardown's bulk decrement counts this waiter
		mc.mu.Unlock()
	}
	select {
	case mc.sendCh <- req:
	case <-mc.down:
		// The connection died between registration and enqueue. Teardown
		// already failed this waiter (registration checked dead under the
		// same mutex teardown collects under), so the round observes
		// ErrConnLost through the reply channel like any in-flight request.
	}
	return mc, nil
}

// round drives one round (round.go) in real time: it posts the round's
// requests on the link, feeds it the replies — demultiplexed by ID, out of
// order across concurrent rounds — and its timer, and deregisters the rest.
func (m *Mux) round(proc types.ProcID, reg int, timeout time.Duration, spec proto.RoundSpec) error {
	// Capacity n: every registered waiter delivers at most once, so sends
	// to this channel can never block even after the round abandons it.
	replyCh := make(chan muxReply, m.n)
	type sent struct {
		mc *muxConn
		id uint64
	}
	var pending []sent
	// Deregister every waiter the round still owns on exit: a late reply
	// must find no table entry (the reader drops it).
	defer func() {
		for _, p := range pending {
			p.mc.mu.Lock()
			if _, owned := p.mc.waiters[p.id]; owned {
				delete(p.mc.waiters, p.id)
				mMuxInFlight.Dec()
			}
			p.mc.mu.Unlock()
		}
	}()
	post := func(sid int, req wire.Request, awaited bool) error {
		ch := replyCh
		if !awaited {
			ch = nil
		}
		mc, err := m.send(sid, req, ch)
		if mc != nil && awaited {
			pending = append(pending, sent{mc, req.ID})
		}
		return err
	}
	var rd Round
	wait, err := rd.Begin(m.Process, proc, reg, 0, timeout, &spec, post)
	if err != nil {
		return err
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		select {
		case r := <-replyCh:
			if done, err := rd.Resolve(r.sid, r.msg, r.subs, r.err, post); done {
				return err
			}
		case <-timer.C:
			if wait, err = rd.TimerFired(post); err != nil {
				return err
			}
			timer.Reset(wait)
		case <-m.done:
			return errClientClosed
		}
	}
}

// dropConn tears down the connection to object sid, failing all of its
// in-flight waiters with ErrConnLost immediately. The dial state resets so
// the next round redials synchronously (the peer is probably still up).
func (m *Mux) dropConn(sid int) {
	m.mu.Lock()
	mc := m.conns[sid-1]
	m.mu.Unlock()
	if mc != nil {
		m.teardown(mc, fmt.Errorf("%w (s%d dropped)", ErrConnLost, sid))
	}
}

// pendingWaiters counts in-flight waiters across all connections
// (instrumentation; leak assertions in tests).
func (m *Mux) pendingWaiters() int {
	m.mu.Lock()
	conns := append([]*muxConn(nil), m.conns...)
	m.mu.Unlock()
	total := 0
	for _, mc := range conns {
		if mc == nil {
			continue
		}
		mc.mu.Lock()
		total += len(mc.waiters)
		mc.mu.Unlock()
	}
	return total
}

// Client executes protocol rounds for one process against one register
// instance, over a Mux (its own, or one shared with other handles via
// Mux.Client). Operations are issued one at a time per handle; any number
// of handles run concurrently over a shared Mux.
type Client struct {
	Proc         types.ProcID
	RoundTimeout time.Duration // default 5s

	mux   *Mux
	owned bool // Close tears the mux down (private mux constructors)
	reg   int
	// Rounds counts completed rounds (instrumentation).
	Rounds int
	// stats caches per-label round metrics: the handle is single-goroutine,
	// so an unsynchronized linear-scan cache keeps the per-round cost to a
	// few pointer-equality string compares.
	stats obs.StatsCache
}

// statsFor returns the cached round metrics for the spec's label; merged
// batch rounds share the "BATCH" family to bound metric cardinality.
func (c *Client) statsFor(spec *proto.RoundSpec) *obs.RoundStats {
	label := spec.Label
	if len(spec.Subs) > 0 {
		label = "BATCH"
	}
	return c.stats.Get(obs.Default, "mux", label)
}

var _ proto.Rounder = (*Client)(nil)

// NewClient returns a round executor for proc against the given addresses,
// addressing the default register (instance 0), on a private pipelined Mux.
func NewClient(proc types.ProcID, addrs []string) *Client {
	return NewClientReg(proc, addrs, 0)
}

// NewClientReg returns a round executor for proc against register instance
// reg of the given objects, on a private pipelined Mux.
func NewClientReg(proc types.ProcID, addrs []string, reg int) *Client {
	c := NewMux(addrs).Client(proc, reg)
	c.owned = true
	return c
}

// NumServers implements proto.Rounder.
func (c *Client) NumServers() int { return c.mux.NumServers() }

// Close tears down the client's private Mux; a no-op for handles on a
// shared Mux (close the Mux itself).
func (c *Client) Close() {
	if c.owned {
		c.mux.Close()
	}
}

// Round implements proto.Rounder.
func (c *Client) Round(spec proto.RoundSpec) error {
	st := c.statsFor(&spec)
	begun := st.Begin()
	err := c.mux.round(c.Proc, c.reg, c.RoundTimeout, spec)
	st.Done(begun, err)
	if err == nil {
		c.Rounds++
	}
	return err
}
