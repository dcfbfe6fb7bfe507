// Package sim is a deterministic message-passing simulator for the paper's
// system model (Section 2): clients (writers and readers) exchange
// request/reply messages with S storage objects over reliable FIFO
// point-to-point channels; objects reply to each message before receiving
// any other; up to t objects are Byzantine; clients fail by crashing.
//
// The simulator is a link (tcpnet.Link): the objects are server.Hosts, the
// clients are the deployed stack — tcpnet.Mux and whatever runs on it, up to
// the sharded Store — and what the simulator owns is the one power the model
// gives the adversary, the order of delivery: the messages in transit, a
// virtual clock that advances only when nothing else can happen, and a
// scheduler under which EXACTLY ONE client goroutine runs at a time. A client
// goroutine (Go, Spawn) yields only where the client stack blocks — a round
// waiting on its link, a shard.Group follower waiting on its leader (Await),
// a Sleep — so every scheduling decision is made by the goroutine driving the
// simulation, through explicit directives or a seeded Run, and one seed is
// one execution. This is the substrate on which the paper's lower-bound
// constructions (Figures 1 and 2) execute, and on which the protocol
// implementations are model-checked against adversarial and randomized
// schedules. What a one-runner schedule cannot find is a data race: the
// baton orders every access. Races are the business of the links on which
// clients run in parallel (tcpnet's in-memory link and real sockets).
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"robustatomic/internal/checker"
	"robustatomic/internal/proto"
	"robustatomic/internal/server"
	"robustatomic/internal/tcpnet"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

// actionTimeout bounds, in real time, how long the running client goroutine
// may take to yield; exceeding it means a harness bug (a client that blocks
// on something the scheduler does not know), and the simulator panics with a
// diagnostic rather than deadlocking the test.
const actionTimeout = 30 * time.Second

// ErrCrashed fails the rounds of an operation the driver crashed, and every
// round once the simulation or the round's link is closed; protocols must
// propagate it.
var ErrCrashed = errors.New("sim: client crashed")

// Config configures a simulation instance.
type Config struct {
	// Servers is S, the number of storage objects (ids 1..S).
	Servers int
	// History, when non-nil, records operation invocations/responses for
	// the checkers.
	History *checker.History
	// Trace, when non-nil, records delivery events for diagram rendering.
	Trace *Trace
}

// Sim is one simulated execution (a partial run under construction).
type Sim struct {
	cfg   Config
	reg   *tcpnet.Registry // the fabric: every object mounted, by address
	addrs []string         // the bootstrap configuration: objects 1..S
	byz   []bool           // slot sid-1: outside liveness accounting, "@" in diagrams
	all   []int            // 1..S
	stray int              // requests sent to an address that names no object

	now    time.Duration      // the virtual clock
	rng    *rand.Rand         // Run's choices and the latency draws (Seed)
	lo, hi time.Duration      // a message's transit time is drawn from [lo, hi]
	hold   func(Message) bool // Run's script; nil: nothing is held
	lanes  []*lane            // every link's, in creation order
	digest uint64             // of every scheduling step so far

	// The baton: tasks holds the client goroutines still alive, running the
	// one that is not parked (nil: the driver runs), and yield is where it
	// hands the baton back. All other state here is touched only by whoever
	// holds it. watchdog bounds each wait for the baton: one timer for the
	// Sim's lifetime, armed only while the driver waits.
	tasks    []*task
	spawned  uint64
	running  *task
	yield    chan struct{}
	closed   bool
	wg       sync.WaitGroup
	watchdog *time.Timer
}

// New creates a simulation with cfg.Servers correct, empty storage objects.
func New(cfg Config) *Sim {
	if cfg.Servers <= 0 {
		panic(fmt.Sprintf("sim: need at least one server, got %d", cfg.Servers))
	}
	s := &Sim{
		cfg:      cfg,
		reg:      new(tcpnet.Registry),
		byz:      make([]bool, cfg.Servers),
		rng:      rand.New(rand.NewSource(1)),
		yield:    make(chan struct{}),
		watchdog: time.NewTimer(actionTimeout),
	}
	s.watchdog.Stop()
	s.addrs = s.reg.Add(server.NewHosts(cfg.Servers)...)
	for sid := 1; sid <= cfg.Servers; sid++ {
		s.all = append(s.all, sid)
	}
	return s
}

// NumServers returns S.
func (s *Sim) NumServers() int { return len(s.all) }

// Hosts returns the objects now serving the bootstrap configuration's
// addresses (slot sid-1), for fault injection.
func (s *Sim) Hosts() []*server.Host {
	hosts := make([]*server.Host, len(s.addrs))
	for i := range hosts {
		hosts[i] = s.host(i + 1)
	}
	return hosts
}

func (s *Sim) host(sid int) *server.Host { return s.reg.Resolve(s.addrs[sid-1]).Load() }

// Addrs returns the bootstrap configuration: the addresses of objects 1..S.
func (s *Sim) Addrs() []string { return slices.Clone(s.addrs) }

// Registry returns the fabric the simulated links resolve addresses on:
// storing into an address's mount replaces the machine there (lost: a blank
// object; crashed: one recovered from its Persister; nil: down, requests fail
// at once), and every link reaches the new object from then on, what is in
// transit to the old one included.
func (s *Sim) Registry() *tcpnet.Registry { return s.reg }

// AddHost mounts a blank object, to serve as object id — a machine that is in
// no configuration yet — and returns its address.
func (s *Sim) AddHost(id int) (addr string, h *server.Host) {
	h, _ = server.NewHost(id, nil) // no disk: nothing to recover, nothing to fail
	return s.reg.Add(h)[0], h
}

// Stray counts the requests clients addressed to no object: a slot vacant in
// their link's view, or an address that names nothing on this fabric (a
// forged redirect hint's).
func (s *Sim) Stray() int { return s.stray }

// Now reads the virtual clock.
func (s *Sim) Now() time.Duration { return s.now }

// Seed seeds the choices of Run and the latency draws.
func (s *Sim) Seed(seed int64) { s.rng = rand.New(rand.NewSource(seed)) }

// SetLatency gives every message sent from here on a transit time drawn
// uniformly from [lo, hi] (initially none: deliverable at once, the order
// all the schedule's).
func (s *Sim) SetLatency(lo, hi time.Duration) { s.lo, s.hi = lo, hi }

// Digest returns a hash of every scheduling step so far — which goroutine
// ran, which message reached whom, when on the virtual clock: two runs with
// equal digests are the same execution.
func (s *Sim) Digest() uint64 { return s.digest }

// note folds one scheduling step into the digest (FNV-1a over words).
func (s *Sim) note(vals ...uint64) {
	s.digest = (s.digest ^ uint64(s.now)) * 0x100000001b3
	for _, v := range vals {
		s.digest = (s.digest ^ v) * 0x100000001b3
	}
}

// SetByzantine marks object sid Byzantine with the given behavior
// (nil keeps the previous behavior, or Honest if none was set). Byzantine
// objects are excluded from liveness accounting.
func (s *Sim) SetByzantine(sid int, b server.Behavior) {
	s.byz[sid-1] = true
	if b != nil {
		s.host(sid).SetBehavior(b)
	}
}

// Snapshot captures the full state of object sid. The lower-bound
// adversaries snapshot block states σ_i at chosen points of a run.
func (s *Sim) Snapshot(sid int) []byte {
	snap, err := s.Store(sid).Snapshot()
	if err != nil {
		panic(fmt.Sprintf("sim: snapshot of s%d: %v", sid, err))
	}
	return snap
}

// Restore forges the state of object sid to a previously captured snapshot
// ("the objects forge their state to σ before replying"). The object keeps
// evolving honestly from the forged state unless a behavior overrides it.
func (s *Sim) Restore(sid int, snap []byte) {
	if err := s.Store(sid).Restore(snap); err != nil {
		panic(fmt.Sprintf("sim: restore of s%d: %v", sid, err))
	}
}

// Store exposes object sid's automaton (register instance 0, the one bare
// rounds address) for white-box assertions in tests.
func (s *Sim) Store(sid int) *server.Store { return s.host(sid).Store(0) }

// Close fails every wait on the simulated link from here on and runs the
// client goroutines to their end. Always call it (usually via defer) to avoid
// leaking goroutines.
func (s *Sim) Close() {
	s.closed = true
	if s.settle(); len(s.tasks) > 0 {
		panic(fmt.Sprintf("sim: %d client goroutines still parked at Close", len(s.tasks)))
	}
	s.wg.Wait()
}

// --- The scheduler ----------------------------------------------------------

// task is one client goroutine under the scheduler: parked until ready holds
// (nil: not yet started, runnable); until is the instant of the virtual clock
// that alone makes it hold (negative: none).
type task struct {
	id    uint64
	wake  chan struct{}
	ready func() bool
	until time.Duration
	done  bool
}

func (t *task) runnable() bool { return !t.done && (t.ready == nil || t.ready()) }

// Go starts fn as a client goroutine: it runs when the driver's directives
// or Run let it, and only while no other does.
func (s *Sim) Go(fn func()) { s.start(fn) }

func (s *Sim) start(fn func()) *task {
	s.spawned++
	t := &task{id: s.spawned, wake: make(chan struct{})}
	s.tasks = append(s.tasks, t)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		<-t.wake
		fn()
		t.done = true
		s.yield <- struct{}{}
	}()
	return t
}

// resume hands the baton to t and waits for it back.
func (s *Sim) resume(t *task) {
	s.running = t
	s.watchdog.Reset(actionTimeout)
	t.wake <- struct{}{}
	select {
	case <-s.yield:
		s.watchdog.Stop()
	case <-s.watchdog.C:
		panic(fmt.Sprintf("sim: a client goroutine ran %v without yielding — it blocks on something the scheduler does not know", actionTimeout))
	}
	s.running = nil
}

// park yields the baton until ready holds; until is the instant that alone
// makes it hold (negative: none).
func (s *Sim) park(ready func() bool, until time.Duration) {
	for !ready() {
		t := s.running
		if t == nil {
			panic("sim: a goroutine the scheduler does not run blocked on the simulated link (start it with Go or Spawn)")
		}
		t.ready, t.until = ready, until
		s.yield <- struct{}{}
		<-t.wake
	}
}

// settle runs every runnable client goroutine, oldest first, until all are
// parked or done.
func (s *Sim) settle() {
	for again := true; again; {
		again = false
		for i := 0; i < len(s.tasks); i++ { // resume may append
			if t := s.tasks[i]; t.runnable() {
				s.resume(t)
				again = true
			}
		}
	}
	s.tasks = slices.DeleteFunc(s.tasks, func(t *task) bool { return t.done })
}

// Until parks the calling client goroutine until cond holds.
func (s *Sim) Until(cond func() bool) { s.park(cond, -1) }

// Await is the simulator's shard.Group.Wait: a follower parks here until its
// batch is done or it is handed the lead.
func (s *Sim) Await(done, lead <-chan struct{}) {
	s.Until(func() bool {
		select {
		case <-done:
			return true
		default:
			return len(lead) > 0
		}
	})
}

// Sleep parks the calling client goroutine for d of virtual time (or until
// the simulation closes).
func (s *Sim) Sleep(d time.Duration) {
	at := s.now + d
	s.park(func() bool { return s.now >= at || s.closed }, at)
}

// --- The link ---------------------------------------------------------------

// port is one client's end of the simulated link (a tcpnet.Link), what a Mux
// mounts: a client process's, or an operation's (Spawn), which the model
// makes a client of its own.
type port struct {
	s      *Sim
	op     *Op
	closed bool
	lanes  []*lane // slot sid-1
}

// lane is the FIFO channel pair between a port's slot and the object its
// address names (at; nil: none, the slot is unreachable): q[0] the requests on
// their way there, q[1] the replies on their way back.
type lane struct {
	port *port
	sid  int
	addr string
	at   *tcpnet.Mount
	q    [2][]*message
}

// message is a request in transit, then its reply.
type message struct {
	seq int // the operation's round number
	req wire.Request
	rsp wire.Response
	to  chan<- tcpnet.Reply // nil: fire-and-forget
	due time.Duration       // deliverable from this instant on
}

// Link returns a new client process's link to the objects of the bootstrap
// configuration.
func (s *Sim) Link() tcpnet.Link { return s.port(nil, s.addrs) }

func (s *Sim) port(op *Op, addrs []string) *port {
	p := &port{s: s, op: op, lanes: make([]*lane, len(addrs))}
	for i, addr := range addrs {
		p.lane(i+1, addr)
	}
	return p
}

// lane points the port's slot sid at addr, on a new lane.
func (p *port) lane(sid int, addr string) {
	ln := &lane{port: p, sid: sid, addr: addr, at: p.s.reg.Resolve(addr)}
	p.lanes[sid-1] = ln
	p.s.lanes = append(p.s.lanes, ln)
}

// Addrs implements tcpnet.Link.
func (p *port) Addrs() []string {
	addrs := make([]string, len(p.lanes))
	for i, ln := range p.lanes {
		addrs[i] = ln.addr
	}
	return addrs
}

// Readdress implements tcpnet.Link: a slot whose address changed switches to a
// new lane. The old one is cut as a connection is: what it carries still
// reaches the object it was sent to, whose replies no round hears any more —
// each round that awaits one learns the loss at once (tcpnet.ErrConnLost).
func (p *port) Readdress(addrs []string) ([]int, error) {
	if err := p.gone(); err != nil {
		return nil, err
	}
	changed := tcpnet.Changed(p.Addrs(), addrs)
	for _, sid := range changed {
		old := p.lanes[sid-1]
		for _, q := range old.q {
			for _, m := range q {
				if m.to != nil {
					m.to <- tcpnet.Reply{Sid: sid, Err: tcpnet.ErrConnLost}
					m.to = nil
				}
			}
		}
		p.lane(sid, addrs[sid-1])
	}
	return changed, nil
}

// Fresh implements tcpnet.Link.
func (p *port) Fresh(addrs []string) tcpnet.Link { return p.s.port(p.op, addrs) }

// transit draws one message's transit time.
func (s *Sim) transit() time.Duration {
	if s.hi == s.lo {
		return s.lo
	}
	return s.lo + time.Duration(s.rng.Int63n(int64(s.hi-s.lo)+1))
}

// gone reports why the port's waits must fail, if they must.
func (p *port) gone() error {
	if p.closed || p.s.closed || p.op != nil && p.op.crashed {
		return ErrCrashed
	}
	return nil
}

// Send implements tcpnet.Link: the request enters transit. Fire-and-forget
// requests travel like any other: their replies arrive late and are ignored.
// Nothing is ever resolved as lost: a request an object drops and a reply it
// withholds are silence, as over a socket.
func (p *port) Send(sid int, req wire.Request, reply chan<- tcpnet.Reply) (tcpnet.Sent, error) {
	if err := p.gone(); err != nil {
		return nil, err
	}
	ln := p.lanes[sid-1]
	if ln.at == nil {
		p.s.stray++
		return nil, fmt.Errorf("sim: s%d: no object at %q", sid, ln.addr)
	}
	if ln.at.Load() == nil {
		return nil, fmt.Errorf("sim: s%d: the object at %q is down", sid, ln.addr)
	}
	m := &message{req: req, to: reply, due: p.s.now + p.s.transit()}
	if p.op != nil {
		m.seq = p.op.seq
	}
	ln.q[0] = append(ln.q[0], m)
	return nil, nil
}

// Now implements tcpnet.Link.
func (p *port) Now() time.Time { return time.Unix(0, int64(p.s.now)) }

// NewTimer implements tcpnet.Link.
func (p *port) NewTimer(d time.Duration) tcpnet.Timer { return &timer{s: p.s, at: p.s.now + d} }

// Framed implements tcpnet.Link: the simulated link stands for sockets.
func (p *port) Framed() bool { return true }

// Close implements tcpnet.Link.
func (p *port) Close() { p.closed = true }

// timer is a round's timer on the virtual clock.
type timer struct {
	s  *Sim
	at time.Duration
}

func (t *timer) Reset(d time.Duration) bool { t.at = t.s.now + d; return true }
func (t *timer) Stop() bool                 { return true }

// Wait implements tcpnet.Link: the round parks until the schedule delivers
// it a reply, the clock reaches its timer, or its client is gone.
func (p *port) Wait(reply <-chan tcpnet.Reply, armed tcpnet.Timer) (tcpnet.Reply, bool, error) {
	t := armed.(*timer)
	p.s.park(func() bool { return p.gone() != nil || len(reply) > 0 || p.s.now >= t.at }, t.at)
	if err := p.gone(); err != nil {
		return tcpnet.Reply{}, false, err
	}
	if len(reply) > 0 {
		return <-reply, false, nil
	}
	return tcpnet.Reply{}, true, nil
}

// deliver delivers the oldest message of ln's direction dir; one the clock
// has not reached yet takes the clock there. A request is processed by its
// object at once — one Host.Serve step — and the reply (if any: Byzantine
// objects may withhold) enters transit, deliverable once the object's netem
// delay and its own transit time have passed. A reply goes to the round that
// awaits it, whose goroutine integrates it when it next runs; a reply for a
// round that is over lands in a channel nobody reads (the model's "late
// replies": received and ignored).
func (s *Sim) deliver(ln *lane, dir int) {
	m := ln.q[dir][0]
	ln.q[dir] = ln.q[dir][1:]
	s.now = max(s.now, m.due)
	op := ln.port.op
	if dir == 0 {
		if op != nil {
			s.trace(TraceEvent{Op: op.Label, Round: m.seq, Server: ln.sid, Byz: s.byz[ln.sid-1], Late: !op.inRound || m.seq != op.seq})
		}
		// (A duplicate would be dropped at the link.)
		h := ln.at.Load()
		if h == nil { // the object went down with the request on its way
			if m.to != nil {
				m.to <- tcpnet.Reply{Sid: ln.sid, Err: tcpnet.ErrConnLost}
			}
			return
		}
		rsp, send, _, delay := h.Serve(m.req)
		s.note(uint64(ln.sid), m.req.ID, uint64(m.req.From.Idx), uint64(m.req.Reg), uint64(m.req.Msg.Kind), uint64(len(m.req.Subs)), uint64(delay))
		if send {
			m.rsp, m.due = rsp, s.now+delay+s.transit()
			ln.q[1] = append(ln.q[1], m)
		}
		return
	}
	s.note(uint64(ln.sid)<<32, m.rsp.ID, uint64(m.rsp.Msg.Kind), uint64(len(m.rsp.Subs)))
	if op != nil {
		seen := m.rsp.Msg
		if len(m.rsp.Subs) == 0 {
			seen.Seq = m.seq // on the wire it echoes a request id
		}
		op.observed = append(op.observed, Observed{Server: ln.sid, Seq: m.seq, Msg: seen})
	}
	if m.to != nil {
		m.to <- tcpnet.Reply{Sid: ln.sid, Msg: m.rsp.Msg, Subs: m.rsp.Subs}
	}
}

// Drain delivers everything in transit, replies included, whatever its due
// time, without running anyone: callable by the running client goroutine, to
// close a fault window with nothing in flight across it.
func (s *Sim) Drain() {
	for _, ln := range s.lanes {
		for dir := range ln.q {
			for len(ln.q[dir]) > 0 {
				s.deliver(ln, dir)
			}
		}
	}
}

// --- Operations -------------------------------------------------------------

// OpFunc is the body of a client operation; it issues rounds through the
// Client and returns the operation's result.
type OpFunc func(c *Client) (types.Value, error)

// Observed is one reply as seen by a client, in delivery order (a batched
// reply's Msg is zero). The lower-bound harness compares Observed streams
// across paired runs to verify the proofs' indistinguishability claims.
type Observed struct {
	Server int
	Seq    int
	Msg    types.Message
}

// Op is a client operation under simulation: a client goroutine on a link
// and a Mux of its own, whose rounds the directives address.
type Op struct {
	sim    *Sim
	Label  string
	Client types.ProcID
	port   *port
	mux    *tcpnet.Mux
	task   *task

	// The in-flight round (inRound), or the last: its label, its number, and
	// the instant its deadline falls on the virtual clock.
	label    string
	seq      int
	inRound  bool
	deadline time.Duration

	rounds   int
	done     bool
	crashed  bool
	result   types.Value
	err      error
	observed []Observed
}

// Client is the protocol-facing handle passed to OpFunc. It implements
// proto.Rounder over the operation's Mux, and holds the simulator's liveness
// oracle.
type Client struct {
	op    *Op
	inner *tcpnet.Client
}

var _ proto.Rounder = (*Client)(nil)

// NumServers implements proto.Rounder.
func (c *Client) NumServers() int { return c.op.sim.NumServers() }

// Round implements proto.Rounder: the round runs on the Mux, under the
// schedule. When every reply is in and the round unsatisfied, the engine
// ends it there — it spares real time the wait for a deadline that must
// fail; under the simulator that is a wait-freedom violation, so the client
// stays parked until the round's deadline (FireTimer), which is what RunOp,
// RunConcurrent and CheckLiveness report.
func (c *Client) Round(spec proto.RoundSpec) error {
	op, s := c.op, c.op.sim
	if op.crashed {
		return ErrCrashed
	}
	op.seq++
	op.label, op.inRound, op.deadline = spec.Label, true, s.now+c.inner.RoundTimeout
	err := c.inner.Round(spec)
	if errors.Is(err, tcpnet.ErrRoundTimeout) && s.now < op.deadline {
		s.park(func() bool { return s.now >= op.deadline || op.port.gone() != nil }, op.deadline)
		if op.crashed {
			err = ErrCrashed
		}
	}
	op.inRound = false
	if err == nil {
		op.rounds++
	}
	return err
}

// Spawn starts a client operation and runs it until it posts its first round
// or completes. kind/arg feed the history checker (use checker.OpRead with
// types.Bottom for reads).
func (s *Sim) Spawn(label string, client types.ProcID, kind checker.OpKind, arg types.Value, fn OpFunc) *Op {
	op := &Op{sim: s, Label: label, Client: client}
	op.port = s.port(op, s.addrs)
	op.mux = tcpnet.NewLinkMux(len(s.all), op.port)
	histID := -1
	if s.cfg.History != nil {
		histID = s.cfg.History.Invoke(client, kind, arg)
	}
	op.task = s.start(func() {
		op.result, op.err = fn(&Client{op: op, inner: op.mux.Client(client, 0)})
		op.done = true
		if histID >= 0 && op.err == nil {
			s.cfg.History.Respond(histID, op.result)
		}
	})
	s.settle()
	return op
}

// Done reports whether the operation completed (including by crash).
func (op *Op) Done() bool { return op.done }

// Result returns the operation's result once done.
func (op *Op) Result() (types.Value, error) {
	if !op.done {
		return types.Bottom, fmt.Errorf("sim: op %s not done", op.Label)
	}
	return op.result, op.err
}

// Rounds returns the number of communication rounds the operation has
// completed so far.
func (op *Op) Rounds() int { return op.rounds }

// CurrentRound returns the label and sequence number of the in-flight round.
func (op *Op) CurrentRound() (label string, seq int, ok bool) {
	return op.label, op.seq, op.inRound
}

// Observations returns the full reply stream the client has received, in
// delivery order.
func (op *Op) Observations() []Observed {
	return append([]Observed(nil), op.observed...)
}
