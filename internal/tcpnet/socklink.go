// The socket link: one pipelined TCP connection per storage daemon.
//
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
	"robustatomic/internal/wire"
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

// sockLink is a Mux's link to daemons: its view of the active configuration's
// addresses (addrs[i] serves object i+1; a slot's address can be swapped or
// vacated as the cluster reconfigures, see Readdress) and one connection per
// populated slot. The only link that dials.
type sockLink struct {
	wallClock

	mu     sync.Mutex
	addrs  []string // slot sid-1 → address; "" = vacant (guarded by mu)
	conns  []*muxConn
	dials  []dialState
	closed bool
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
	waiters map[uint64]chan<- Reply
}

func newSockLink(addrs []string) *sockLink {
	return &sockLink{
		wallClock: wallClock{make(chan struct{})},
		addrs:     append([]string(nil), addrs...),
		conns:     make([]*muxConn, len(addrs)),
		dials:     make([]dialState, len(addrs)),
	}
}

// Addrs implements Link.
func (l *sockLink) Addrs() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.addrs...)
}

// Fresh implements Link: nothing is dialed until a round asks.
func (l *sockLink) Fresh(addrs []string) Link { return newSockLink(addrs) }

// Readdress implements Link: for every slot whose address changed the old
// connection is torn down and the slot's backoff latch dropped — a departed
// daemon must not keep an eternal redial loop (or its backoff latch) alive,
// nor delay the replacement's first dial. A dial already in flight for the
// old address is left to finish on its own (its outcome is discarded by the
// stale-address guard); clobbering its marker here would race a second dial
// onto the slot and panic the first dialer's channel close. Connections on
// unchanged slots are untouched; in-flight rounds on a torn-down slot fail
// with ErrConnLost and retry against the new address.
func (l *sockLink) Readdress(addrs []string) (changed []int, err error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, errClientClosed
	}
	changed = Changed(l.addrs, addrs)
	var drop []*muxConn
	for _, sid := range changed {
		i := sid - 1
		l.addrs[i] = addrs[i]
		if mc := l.conns[i]; mc != nil {
			// Detach under the lock: no round may resolve the departed
			// daemon's connection once the new address view is visible (its
			// replies must never count for the reconfigured slot).
			l.conns[i] = nil
			drop = append(drop, mc)
		}
		// Drop only the backoff latch: the departed address must not delay
		// the new one's first dial. The inflight/syncDone fields are
		// preserved — a dial in flight for the old address still owns the
		// slot's dial marker and clears it itself when it completes (the
		// stale-address guard in installLocked discards its outcome).
		// Zeroing them here would let a second dial start concurrently and
		// would yank the channel the first dialer is about to close.
		l.dials[i].failedAt = time.Time{}
	}
	l.mu.Unlock()
	for _, mc := range drop {
		l.teardown(mc, fmt.Errorf("%w (s%d reconfigured away)", ErrConnLost, mc.sid))
	}
	return changed, nil
}

// Close implements Link: it interrupts every in-flight round and closes every
// connection, once what rounds already handed to it has reached its object: a
// round returns on S−t acks, so the last frames to the slowest t objects are
// often still queued here, and dropping them would leave those objects behind
// for good. Each writer drains its queue and half-closes, the object reads to
// EOF and hangs up, the reader sees that and tears the connection down; an
// object that does not play along is cut off after closeLinger.
func (l *sockLink) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	close(l.done)
	conns := append([]*muxConn(nil), l.conns...)
	l.mu.Unlock()
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
}

// connFor returns the live connection to object sid, dialing if needed
// (see dialState for the synchronous/backoff/background policy).
func (l *sockLink) connFor(sid int) (*muxConn, error) {
	for {
		mc, wait, err := l.connOrWait(sid)
		if wait == nil {
			return mc, err
		}
		<-wait // a synchronous dial is in flight; adopt its outcome
	}
}

// connOrWait is connFor's locked step: it returns a connection, an error,
// or a channel to wait on while another round's synchronous dial completes.
func (l *sockLink) connOrWait(sid int) (*muxConn, <-chan struct{}, error) {
	l.mu.Lock()
	if mc := l.conns[sid-1]; mc != nil {
		l.mu.Unlock()
		return mc, nil, nil
	}
	if l.closed {
		l.mu.Unlock()
		return nil, nil, errClientClosed
	}
	addr := l.addrs[sid-1]
	if addr == "" {
		// The active configuration leaves this slot vacant: nothing to
		// dial, no backoff state to keep — the slot counts as faulty until
		// a join fills it (Readdress clears the state then).
		l.mu.Unlock()
		return nil, nil, errSlotVacant
	}
	ds := &l.dials[sid-1]
	if ds.inflight {
		wait := ds.syncDone
		l.mu.Unlock()
		if wait != nil {
			return nil, wait, nil
		}
		return nil, nil, errDialPending
	}
	if ds.failedAt.IsZero() {
		done := make(chan struct{})
		ds.inflight = true
		ds.syncDone = done
		l.mu.Unlock()
		mMuxDials.Inc()
		conn, err := net.DialTimeout("tcp", addr, dialTimeout)
		l.mu.Lock()
		// Close the captured channel, never the shared field: if some reset
		// replaced the slot's dial state while we dialed, ds.syncDone is no
		// longer ours to close (or clear) — closing a nil or foreign channel
		// would panic every round on the mux.
		if ds.syncDone == done {
			ds.inflight = false
			ds.syncDone = nil
		}
		mc, installErr := l.installLocked(sid, addr, conn, err)
		l.mu.Unlock()
		close(done)
		if installErr != nil {
			return nil, nil, fmt.Errorf("tcpnet: dial s%d: %w", sid, installErr)
		}
		return mc, nil, nil
	}
	if time.Since(ds.failedAt) < DialBackoff {
		l.mu.Unlock()
		return nil, nil, errObjectDown
	}
	// Backoff expired: retry in the background; this round still skips the
	// object, the next one uses the connection if the dial succeeded.
	ds.inflight = true
	go func() {
		mMuxRedials.Inc()
		conn, err := net.DialTimeout("tcp", addr, dialTimeout)
		l.mu.Lock()
		ds.inflight = false
		l.installLocked(sid, addr, conn, err)
		l.mu.Unlock()
	}()
	l.mu.Unlock()
	return nil, nil, errDialPending
}

// installLocked records the outcome of a dial attempt (under l.mu): on
// success it installs the connection and starts its writer and reader
// goroutines. addr is the address the dial actually targeted — if a
// Readdress swapped the slot while the dial was in flight, the outcome
// belongs to a departed daemon and is discarded (neither the connection
// nor a failure's backoff latch may leak into the new address's state).
func (l *sockLink) installLocked(sid int, addr string, conn net.Conn, err error) (*muxConn, error) {
	if l.addrs[sid-1] != addr {
		if conn != nil {
			conn.Close()
		}
		return nil, errObjectDown
	}
	ds := &l.dials[sid-1]
	if err != nil {
		mMuxDialFails.Inc()
		ds.failedAt = time.Now()
		return nil, err
	}
	if l.closed {
		conn.Close()
		return nil, errClientClosed
	}
	if mc := l.conns[sid-1]; mc != nil {
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
		waiters: make(map[uint64]chan<- Reply),
	}
	l.conns[sid-1] = mc
	go l.writeLoop(mc)
	go l.readLoop(mc)
	return mc, nil
}

// teardown kills one connection: the socket closes, the conn detaches from
// the table with its dial state reset (an established connection died — the
// peer is probably still up, so the next round dials synchronously; if it
// is not, that dial's failure opens the backoff window), and every
// in-flight waiter fails with err. Idempotent — the reader, the writer
// and dropConn may race into it.
func (l *sockLink) teardown(mc *muxConn, err error) {
	mc.closer.Do(func() {
		close(mc.down)
		mc.conn.Close()
	})
	l.mu.Lock()
	if l.conns[mc.sid-1] == mc {
		l.conns[mc.sid-1] = nil
		l.dials[mc.sid-1] = dialState{}
	}
	l.mu.Unlock()
	mc.mu.Lock()
	ws := mc.waiters
	mc.waiters = nil
	mc.dead = true
	mc.mu.Unlock()
	select {
	case <-l.done: // Close: the connection was not lost, it was given up
	default:
		mMuxConnLost.Inc()
	}
	mMuxInFlight.Add(-int64(len(ws)))
	for _, ch := range ws {
		ch <- Reply{Sid: mc.sid, Err: err}
	}
}

// writeLoop owns the connection's encoder: it drains the send queue
// greedily into a buffered writer and flushes when the queue runs dry, so
// pipelined bursts cost few syscalls.
func (l *sockLink) writeLoop(mc *muxConn) {
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
				l.teardown(mc, fmt.Errorf("%w (send s%d: %v)", ErrConnLost, mc.sid, err))
				return
			}
		case <-mc.down:
			return
		case <-l.done:
			// Close: send what is queued, then EOF; the reader does the rest.
			if drain() != nil || mc.conn.(*net.TCPConn).CloseWrite() != nil {
				l.teardown(mc, errClientClosed)
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
func (l *sockLink) readLoop(mc *muxConn) {
	dec := wire.NewDecoder(countingReader{mc.conn, mMuxRxBytes})
	for {
		rsp, err := dec.DecodeResponse()
		if err != nil {
			l.teardown(mc, fmt.Errorf("%w (recv s%d: %v)", ErrConnLost, mc.sid, err))
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
		ch <- Reply{Sid: mc.sid, Msg: rsp.Msg, Subs: rsp.Subs}
	}
}

// Send implements Link: it registers the round's waiter for req.ID and
// enqueues the request on the connection, dialing it first if needed.
func (l *sockLink) Send(sid int, req wire.Request, reply chan<- Reply) (Sent, error) {
	mc, err := l.connFor(sid)
	if err != nil {
		return nil, err
	}
	if reply != nil {
		mc.mu.Lock()
		if mc.dead {
			mc.mu.Unlock()
			return nil, ErrConnLost
		}
		mc.waiters[req.ID] = reply
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

// Framed implements Link.
func (l *sockLink) Framed() bool { return true }

// Abandon implements Sent: a late reply must find no table entry (the reader
// drops it).
func (mc *muxConn) Abandon(id uint64) {
	mc.mu.Lock()
	if _, owned := mc.waiters[id]; owned {
		delete(mc.waiters, id)
		mMuxInFlight.Dec()
	}
	mc.mu.Unlock()
}
