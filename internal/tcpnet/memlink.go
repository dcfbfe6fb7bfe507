package tcpnet

import (
	"math/rand"
	"sync"
	"time"

	"robustatomic/internal/server"
	"robustatomic/internal/wire"
)

// memLink is a Mux's link to objects hosted in this process: no socket, no
// codec, no waiter table. With maxDelay == 0 a request is served on the
// sending round's own goroutine and its reply is in the round's channel
// before send returns — every object still receives every request, and an
// object's step stays atomic (server.Host serializes). With maxDelay > 0
// each message instead travels on a goroutine that sleeps a seeded random
// delay before the object receives the request and again before the round
// receives the reply, so requests and replies reorder as asynchrony allows.
// Either way a lost request or a withheld reply resolves as errNoReply at
// once: nothing here can arrive later, so a round no quorum can satisfy
// fails in microseconds instead of burning its timeout.
type memLink struct {
	hosts    []*server.Host // slot sid-1
	maxDelay time.Duration
	wg       sync.WaitGroup // delayed deliveries; Mux.Close waits for them

	mu  sync.Mutex
	rng *rand.Rand // delay source
}

// NewMemMux returns a Mux over objects hosted in this process (hosts[i] is
// object i+1). Any number of muxes may share the hosts — each is one client
// process's transport. maxDelay > 0 injects seeded random message delays.
func NewMemMux(hosts []*server.Host, seed int64, maxDelay time.Duration) *Mux {
	m := NewMux(make([]string, len(hosts)))
	m.mem = &memLink{hosts: hosts, maxDelay: maxDelay, rng: rand.New(rand.NewSource(seed))}
	return m
}

// send implements Mux.send over the in-memory link.
func (l *memLink) send(m *Mux, sid int, req wire.Request, replyCh chan muxReply) error {
	if l.maxDelay > 0 {
		m.mu.Lock() // Close waits for exactly the deliveries started before it
		defer m.mu.Unlock()
		if m.closed {
			return errClientClosed
		}
		l.wg.Add(1)
		go l.deliver(m, sid, req, replyCh)
		return nil
	}
	select {
	case <-m.done:
		return errClientClosed
	default:
	}
	rsp, ok, _, _ := l.hosts[sid-1].Serve(req) // a netem delay needs a clock: the delayed link's business
	if replyCh != nil {
		replyCh <- memReply(sid, rsp, ok)
	}
	return nil
}

// deliver carries one request to its object and the reply back, each after
// a random delay (plus the object's own netem delay on the way back).
func (l *memLink) deliver(m *Mux, sid int, req wire.Request, replyCh chan muxReply) {
	defer l.wg.Done()
	if !m.sleep(l.delay()) {
		return
	}
	rsp, ok, _, netem := l.hosts[sid-1].Serve(req)
	if replyCh == nil || ok && !m.sleep(l.delay()+netem) {
		return
	}
	replyCh <- memReply(sid, rsp, ok)
}

// memReply is what a served request resolves to. A duplicated reply (netem)
// resolves once: the copy would be dropped right here.
func memReply(sid int, rsp wire.Response, ok bool) muxReply {
	if !ok {
		return muxReply{sid: sid, err: errNoReply}
	}
	return muxReply{sid: sid, msg: rsp.Msg, subs: rsp.Subs}
}

// delay draws one random message delay.
func (l *memLink) delay() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return time.Duration(l.rng.Int63n(int64(l.maxDelay)))
}

// sleep waits for d or the mux's Close (false).
func (m *Mux) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-m.done:
		return false
	}
}
