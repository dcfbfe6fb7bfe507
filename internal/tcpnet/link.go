package tcpnet

import (
	"sync"
	"time"

	"robustatomic/internal/server"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

// Link is everything a Mux's rounds need of the world: a way to hand a
// request to an object and learn at most once what became of it, the clock
// they time themselves on and the timer they wait on, and an end. Three
// implement it — sockets to daemons (socklink.go), the objects of this process
// served inline (memLink, below), and the simulator's scheduled link
// (internal/sim), whose adversary owns the delivery order and the clock — and
// Mux.round is the one loop over all of them.
type Link interface {
	// Send hands req to object sid. A non-nil reply receives AT MOST ONE Reply
	// for it — the object's response (a duplicate is dropped by the link, never
	// delivered), the link's failure, or errNoReply where the link can tell
	// that none will come — and nothing at all while a reply may still arrive.
	// Delivery never blocks: the round sized reply for every request it sends.
	// A nil reply sends fire-and-forget. The returned Sent is where the round
	// deregisters a resolution it stops waiting for (nil: nothing to
	// deregister); an error means the object is unreachable.
	Send(sid int, req wire.Request, reply chan<- Reply) (Sent, error)
	// Now reads the link's clock.
	Now() time.Time
	// NewTimer arms the timer of one round for d on that clock.
	NewTimer(d time.Duration) Timer
	// Wait is the only place a round blocks: until a resolution arrives on
	// reply, t — a timer of this link's — fires, or the link closes (err).
	Wait(reply <-chan Reply, t Timer) (r Reply, fired bool, err error)
	// Framed reports whether each request costs a frame on this link — what
	// merging concurrent rounds into one batched request saves.
	Framed() bool
	// Close fails every wait on the link, now and from here on, once what
	// rounds already handed to it has been given its chance to arrive.
	Close()
}

// Reply is what a link resolves a request with: object Sid's response, or
// the failure of the request's link.
type Reply struct {
	Sid  int
	Msg  types.Message
	Subs []wire.SubReq
	Err  error
}

// Sent is a request in flight on a link that keeps a table of them.
type Sent interface {
	// Abandon deregisters request id: a late reply finds no entry.
	Abandon(id uint64)
}

// Timer is one round's timer, armed by a link and waited on through it;
// Reset and Stop are time.Timer's.
type Timer interface {
	Reset(d time.Duration) bool
	Stop() bool
}

// wallClock is the clock of the links that run in real time; done, closed by
// the link's Close, interrupts every wait on it.
type wallClock struct{ done chan struct{} }

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) NewTimer(d time.Duration) Timer { return time.NewTimer(d) }

func (c wallClock) Wait(reply <-chan Reply, t Timer) (Reply, bool, error) {
	select {
	case r := <-reply:
		return r, false, nil
	case <-t.(*time.Timer).C:
		return Reply{}, true, nil
	case <-c.done:
		return Reply{}, false, errClientClosed
	}
}

// memLink is a Mux's link to objects hosted in this process: no socket, no
// codec, no waiter table, no goroutine, no timer armed for a message. A
// request is served on the sending round's own goroutine and its reply is in
// the round's channel before Send returns — every object still receives
// every request, and an object's step stays atomic (server.Host serializes).
// A lost request or a withheld reply resolves as errNoReply at once: nothing
// here can arrive later, so a round no quorum can satisfy fails in
// microseconds instead of burning its timeout. Clients run truly in parallel
// over it, which is what makes it (and real sockets) the place where the race
// detector sees the client stack; the order of delivery is the Go
// scheduler's, and a netem delay is not applied — both are the scheduled
// link's business.
type memLink struct {
	wallClock
	hosts  []*server.Host // slot sid-1
	closer sync.Once
}

// NewMemMux returns a Mux over objects hosted in this process (hosts[i] is
// object i+1). Any number of muxes may share the hosts — each is one client
// process's transport.
func NewMemMux(hosts []*server.Host) *Mux {
	return NewLinkMux(len(hosts), &memLink{wallClock: wallClock{make(chan struct{})}, hosts: hosts})
}

// Send implements Link.
func (l *memLink) Send(sid int, req wire.Request, reply chan<- Reply) (Sent, error) {
	select {
	case <-l.done:
		return nil, errClientClosed
	default:
	}
	rsp, ok, _, _ := l.hosts[sid-1].Serve(req) // a duplicate would be dropped right here
	if reply == nil {
		return nil, nil
	}
	if !ok {
		reply <- Reply{Sid: sid, Err: errNoReply}
	} else {
		reply <- Reply{Sid: sid, Msg: rsp.Msg, Subs: rsp.Subs}
	}
	return nil, nil
}

// Framed implements Link: a request is a function call.
func (l *memLink) Framed() bool { return false }

// Close implements Link.
func (l *memLink) Close() { l.closer.Do(func() { close(l.done) }) }
