package tcpnet

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"robustatomic/internal/proto"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

// startRawServer runs a wire-speaking object stub: handle is invoked
// serially, per decoded request, with the connection's encoder. It exists so
// mux tests can script exact reply timing (delays, reordering, silence) that
// a real Server never produces.
func startRawServer(t *testing.T, handle func(req wire.Request, enc *wire.Encoder)) (addr string, accepts *atomic.Int32, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			n.Add(1)
			go func() {
				defer conn.Close()
				dec := wire.NewDecoder(conn)
				enc := wire.NewEncoder(conn)
				for {
					req, err := dec.DecodeRequest()
					if err != nil {
						return
					}
					handle(req, enc)
				}
			}()
		}
	}()
	stopped := false
	stop = func() {
		if !stopped {
			stopped = true
			ln.Close()
		}
	}
	t.Cleanup(stop)
	return ln.Addr().String(), &n, stop
}

func ackSpec(label string) proto.RoundSpec {
	return proto.RoundSpec{
		Label: label,
		Req:   func(sid int) types.Message { return types.Message{Kind: types.MsgRead1} },
		Acc:   proto.AckAcc(1),
	}
}

// TestLateReplyAfterTimeoutDiscarded pins the abandoned-waiter path: a reply
// that arrives after its round timed out and deregistered must be discarded
// without blocking the reader or leaking the demux slot, and the connection
// must keep serving later rounds.
func TestLateReplyAfterTimeoutDiscarded(t *testing.T) {
	var calls atomic.Int32
	addr, accepts, _ := startRawServer(t, func(req wire.Request, enc *wire.Encoder) {
		if calls.Add(1) == 1 {
			time.Sleep(150 * time.Millisecond) // reply long after the round's deadline
		}
		enc.EncodeResponse(wire.Response{ID: req.ID, Msg: types.Message{Kind: types.MsgAck}})
	})
	c := NewMux([]string{addr}).Client(types.Reader(1), 0)
	defer c.mux.Close()
	c.RoundTimeout = 30 * time.Millisecond

	err := c.Round(ackSpec("SLOW"))
	if !errors.Is(err, ErrRoundTimeout) {
		t.Fatalf("slow round: err = %v, want ErrRoundTimeout", err)
	}
	// The round deregistered its waiter on the way out: the table is empty
	// even though the reply is still in flight.
	if n := c.mux.pendingWaiters(); n != 0 {
		t.Fatalf("after timed-out round: %d pending waiters, want 0 (leak)", n)
	}

	// The next round's reply is queued behind the late one on the same
	// connection, so its success proves the reader dropped the stale reply
	// and moved on rather than stalling or dying.
	c.RoundTimeout = 5 * time.Second
	if err := c.Round(ackSpec("AFTER")); err != nil {
		t.Fatalf("round after late reply: %v", err)
	}
	if n := c.mux.pendingWaiters(); n != 0 {
		t.Fatalf("after recovery round: %d pending waiters, want 0", n)
	}
	if got := accepts.Load(); got != 1 {
		t.Errorf("server saw %d connections, want 1 (late reply must not cost a redial)", got)
	}
}

// TestDropConnFailsInFlightWaiters pins connection-loss semantics: dropping
// a connection fails that connection's in-flight rounds with ErrConnLost
// immediately — distinctly and well before their deadlines — and a dead
// peer then sits in the documented 1s redial backoff.
func TestDropConnFailsInFlightWaiters(t *testing.T) {
	if DialBackoff != time.Second {
		t.Fatalf("DialBackoff = %v, want 1s (documented redial backoff)", DialBackoff)
	}
	addr, _, stop := startRawServer(t, func(req wire.Request, enc *wire.Encoder) {
		// Withhold every reply: rounds stay in flight until the drop.
	})
	c := NewMux([]string{addr}).Client(types.Reader(1), 0)
	defer c.mux.Close()
	c.RoundTimeout = 10 * time.Second

	errCh := make(chan error, 1)
	start := time.Now()
	go func() { errCh <- c.Round(ackSpec("INFLIGHT")) }()
	deadline := time.Now().Add(5 * time.Second)
	for c.mux.pendingWaiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("round never registered its waiter")
		}
		time.Sleep(time.Millisecond)
	}
	c.mux.dropConn(1)
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrConnLost) {
			t.Fatalf("dropped round: err = %v, want ErrConnLost", err)
		}
		if errors.Is(err, ErrRoundTimeout) {
			t.Fatalf("dropped round reported a timeout: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("round did not observe the drop")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("drop took %v to surface, want well under the 10s deadline", d)
	}
	if n := c.mux.pendingWaiters(); n != 0 {
		t.Fatalf("after drop: %d pending waiters, want 0", n)
	}

	// With the peer gone for good, the fresh dial state redials synchronously
	// once (the failure opens the backoff window), then refuses instantly.
	stop()
	if err := c.Round(ackSpec("DEAD")); !errors.Is(err, ErrConnLost) {
		t.Fatalf("round against dead peer: err = %v, want ErrConnLost", err)
	}
	begin := time.Now()
	if _, err := socks(c.mux).connFor(1); err != errObjectDown {
		t.Fatalf("connFor(dead) = %v, want errObjectDown", err)
	}
	if d := time.Since(begin); d > 100*time.Millisecond {
		t.Errorf("connFor during backoff took %v, want immediate", d)
	}
}

// TestOutOfOrderReplies pins the demux property the Seq-matched lock-step
// client never had: replies complete by request ID, not FIFO, so a round
// whose reply arrives first finishes first even if its request was sent
// second — over a single shared connection.
func TestOutOfOrderReplies(t *testing.T) {
	var (
		mu      sync.Mutex
		held    *wire.Request
		heldEnc *wire.Encoder
	)
	firstSeen := make(chan struct{})
	addr, accepts, _ := startRawServer(t, func(req wire.Request, enc *wire.Encoder) {
		mu.Lock()
		defer mu.Unlock()
		if held == nil {
			r := req
			held = &r
			heldEnc = enc
			close(firstSeen)
			return // withhold the first round's reply until released below
		}
		enc.EncodeResponse(wire.Response{ID: req.ID, Msg: types.Message{Kind: types.MsgAck}})
	})
	m := NewMux([]string{addr})
	defer m.Close()
	c1 := m.Client(types.Reader(1), 1)
	c2 := m.Client(types.Reader(2), 2)

	firstDone := make(chan error, 1)
	go func() { firstDone <- c1.Round(ackSpec("FIRST")) }()
	<-firstSeen // the first request is in flight and withheld

	// The second round runs to completion while the first is still pending:
	// completion is by request ID, not FIFO over the shared connection.
	if err := c2.Round(ackSpec("SECOND")); err != nil {
		t.Fatalf("second round: %v", err)
	}
	if n := m.pendingWaiters(); n != 1 {
		t.Fatalf("while first reply withheld: %d pending waiters, want 1", n)
	}
	mu.Lock()
	heldEnc.EncodeResponse(wire.Response{ID: held.ID, Msg: types.Message{Kind: types.MsgAck}})
	mu.Unlock()
	select {
	case err := <-firstDone:
		if err != nil {
			t.Fatalf("first round: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("released reply never completed the first round")
	}
	if got := accepts.Load(); got != 1 {
		t.Errorf("server saw %d connections, want 1 (rounds must share the mux connection)", got)
	}
}

// TestConcurrentRoundsShareOneConnection hammers one mux from many
// goroutines and asserts the whole load rode a single TCP connection with
// no leaked demux entries.
func TestConcurrentRoundsShareOneConnection(t *testing.T) {
	addr, accepts, _ := startRawServer(t, func(req wire.Request, enc *wire.Encoder) {
		enc.EncodeResponse(wire.Response{ID: req.ID, Msg: types.Message{Kind: types.MsgAck}})
	})
	m := NewMux([]string{addr})
	defer m.Close()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := m.Client(types.Reader(g+1), g)
			for i := 0; i < 25; i++ {
				if err := c.Round(ackSpec(fmt.Sprintf("G%d/%d", g, i))); err != nil {
					t.Errorf("g%d round %d: %v", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := accepts.Load(); got != 1 {
		t.Errorf("server saw %d connections, want 1", got)
	}
	if n := m.pendingWaiters(); n != 0 {
		t.Errorf("%d pending waiters after quiescence, want 0", n)
	}
}

// TestCloseDeliversQueuedFrames: a write returns on S−t acks, so the frames
// to a slow object are still queued on its connection when the handle is
// closed right after. Close must deliver them — an object left behind by a
// closing client stays behind — and return only once the object has them.
func TestCloseDeliversQueuedFrames(t *testing.T) {
	servers, addrs := startCluster(t, 4)
	servers[3].SetNetem(nil, 0, 0, 5*time.Millisecond) // s4 serves, then sits on each reply
	m := NewMux(addrs)
	c := m.Client(types.Writer, 0)
	big := strings.Repeat("x", 1<<20) // 24 MB of frames: more than socket buffers hold
	var last types.Pair
	for i := 1; i <= 12; i++ {
		last = types.Pair{TS: types.At(int64(i)), Val: types.Value(fmt.Sprintf("v%d%s", i, big))}
		for _, kind := range []types.MsgKind{types.MsgPreWrite, types.MsgWrite} {
			spec := proto.RoundSpec{
				Label: "W",
				Req:   func(int) types.Message { return types.Message{Kind: kind, Pair: last} },
				Acc:   proto.AckAcc(3),
			}
			if err := c.Round(spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.Close()
	pw, w, err := probeShared(addrs[3], 0)
	if err != nil {
		t.Fatal(err)
	}
	if pw != last || w != last {
		t.Errorf("after Close s4 holds pw %v, w %v; want ts %v in both", pw.TS, w.TS, last.TS)
	}
}

// TestCloseCutsOffStuckObject: an object that stopped reading — the writer
// is blocked mid-flush on a full socket — must not hold Close beyond the
// linger.
func TestCloseCutsOffStuckObject(t *testing.T) {
	addr, _, _ := startRawServer(t, func(wire.Request, *wire.Encoder) { select {} })
	m := NewMux([]string{addr})
	c := m.Client(types.Writer, 0)
	c.RoundTimeout = 20 * time.Millisecond
	big := types.Value(strings.Repeat("x", 1<<20))
	for i := 0; i < 32; i++ { // far more than the socket buffers take
		spec := ackSpec("W")
		spec.Req = func(int) types.Message { return types.Message{Kind: types.MsgWrite, Pair: types.Pair{Val: big}} }
		if err := c.Round(spec); !errors.Is(err, ErrRoundTimeout) {
			t.Fatalf("round against a stuck object: %v, want a timeout", err)
		}
	}
	begun := time.Now()
	m.Close()
	if d := time.Since(begun); d > 2*closeLinger {
		t.Errorf("Close took %v against a stuck object, want about %v", d, closeLinger)
	}
}
