package tcpnet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"robustatomic/internal/server"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

// Link is everything a Mux needs of the world: a way to hand a request to an
// object and learn at most once what became of it, the clock its rounds time
// themselves on and the timer they wait on, an end — and which object each
// slot reaches: a slot holds an address, and an address is something the link
// resolves, on its fabric (a socket address it dials; the name of an object
// mounted in this process or in the simulation, see Registry). Three
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
	// Addrs returns a copy of the link's address view (slot sid-1 → address,
	// "" for a vacant slot).
	Addrs() []string
	// Readdress installs addrs (one per slot) as the view and reports the
	// slots whose address changed: the link forgets what it kept for the
	// objects that held them, the caller what IT kept (Mux.Reconfigure).
	// Unchanged slots are untouched. An address that names nothing on the
	// fabric leaves its slot unreachable.
	Readdress(addrs []string) (changed []int, err error)
	// Fresh returns a new link on the same fabric whose slots reach exactly
	// addrs, sharing nothing with this one but the fabric: how an unverified
	// redirect hint's S addresses are asked, and one newcomer that is in no
	// configuration yet (Mux.Fresh, Mux.Direct).
	Fresh(addrs []string) Link
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

// Registry is the fabric under the in-process links (memLink below, the
// simulator's): the objects hosted in this process, by address. An address
// names a mount point; links resolve it when they are (re)addressed, never per
// message, and storing into the mount swaps the object behind the address — a
// machine lost, a blank one started in its place; nil while it is down, when
// requests fail at once, as to a port nobody listens on. The zero value is
// empty.
type Registry struct {
	mu     sync.Mutex
	mounts map[string]*Mount
}

// Mount is where an address's current object is read from.
type Mount = atomic.Pointer[server.Host]

// Add mounts hosts under new addresses and returns those, in order.
func (r *Registry) Add(hosts ...*server.Host) (addrs []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.mounts == nil {
		r.mounts = map[string]*Mount{}
	}
	for _, h := range hosts {
		addr := fmt.Sprintf("obj:%d", len(r.mounts)+1)
		r.mounts[addr] = new(Mount)
		r.mounts[addr].Store(h)
		addrs = append(addrs, addr)
	}
	return addrs
}

// Resolve returns addr's mount point; nil when it names none (a vacant slot,
// an address of some other fabric, a forgery).
func (r *Registry) Resolve(addr string) *Mount {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.mounts[addr]
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
	reg    *Registry
	view   atomic.Pointer[memView]
	closer sync.Once
}

// memView is a memLink's address view, resolved: replaced whole by Readdress,
// so Send indexes it without a lock.
type memView struct {
	addrs []string
	at    []*Mount // slot sid-1; nil: unreachable
}

// NewMemMux returns a Mux over objects hosted in this process (hosts[i] is
// object i+1), on a fabric of their own.
func NewMemMux(hosts []*server.Host) *Mux {
	reg := new(Registry)
	return NewLinkMux(len(hosts), reg.Link(reg.Add(hosts...)))
}

// Link returns a new inline link to the objects r mounts at addrs. Any number
// of links may share a registry — each is one client process's transport.
func (r *Registry) Link(addrs []string) Link {
	l := &memLink{wallClock: wallClock{make(chan struct{})}, reg: r}
	l.Readdress(addrs)
	return l
}

// Fresh implements Link.
func (l *memLink) Fresh(addrs []string) Link { return l.reg.Link(addrs) }

// Send implements Link.
func (l *memLink) Send(sid int, req wire.Request, reply chan<- Reply) (Sent, error) {
	select {
	case <-l.done:
		return nil, errClientClosed
	default:
	}
	at := l.view.Load().at[sid-1]
	if at == nil {
		return nil, errSlotVacant
	}
	h := at.Load()
	if h == nil {
		return nil, errObjectDown
	}
	rsp, ok, _, _ := h.Serve(req) // a duplicate would be dropped right here
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

// Addrs implements Link.
func (l *memLink) Addrs() []string { return append([]string(nil), l.view.Load().addrs...) }

// Readdress implements Link (callers serialize: Mux.Reconfigure).
func (l *memLink) Readdress(addrs []string) ([]int, error) {
	v := &memView{append([]string(nil), addrs...), make([]*Mount, len(addrs))}
	for i, a := range addrs {
		v.at[i] = l.reg.Resolve(a)
	}
	if old := l.view.Swap(v); old != nil {
		return Changed(old.addrs, addrs), nil
	}
	return nil, nil
}

// Changed lists the slots (object ids) at which two address views differ.
func Changed(old, addrs []string) (sids []int) {
	for i := range addrs {
		if old[i] != addrs[i] {
			sids = append(sids, i+1)
		}
	}
	return sids
}
