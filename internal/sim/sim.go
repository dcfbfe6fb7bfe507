// Package sim is a deterministic message-passing simulator for the paper's
// system model (Section 2): clients (writers and readers) exchange
// request/reply messages with S storage objects over reliable FIFO
// point-to-point channels; objects reply to each message before receiving
// any other; up to t objects are Byzantine; clients fail by crashing.
//
// The objects are server.Hosts and a round is the tcpnet.Round state machine
// the deployed transport runs; the simulator is its second driver. Client
// operations run in goroutines, but every scheduling decision — which
// requests and replies are delivered, in what order, when a round's timer
// fires, which objects turn Byzantine, which states get forged — is made by
// the single driver goroutine through explicit directives, so every run is
// fully deterministic and replayable. This is the substrate on which the paper's
// lower-bound constructions (Figures 1 and 2) execute, and on which the
// protocol implementations are model-checked against adversarial and
// randomized schedules.
package sim

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"robustatomic/internal/checker"
	"robustatomic/internal/proto"
	"robustatomic/internal/server"
	"robustatomic/internal/tcpnet"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

// actionTimeout bounds every rendezvous with a client goroutine; exceeding
// it means a harness bug (a protocol that blocks outside Round), and the
// simulator panics with a diagnostic rather than deadlocking the test.
const actionTimeout = 30 * time.Second

// ErrCrashed is returned from Client.Round when the driver crashed the
// operation; protocols must propagate it.
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
	hosts []*server.Host // slot sid-1
	byz   []bool         // slot sid-1: outside liveness accounting, "@" in diagrams
	procs map[types.ProcID]*tcpnet.Process
	ops   []*Op
	wg    sync.WaitGroup
	all   []int // 1..S
	// watchdog bounds each rendezvous with a client goroutine: one timer for
	// the Sim's lifetime, armed only while the driver waits.
	watchdog *time.Timer
}

// New creates a simulation with cfg.Servers correct, empty storage objects.
func New(cfg Config) *Sim {
	if cfg.Servers <= 0 {
		panic(fmt.Sprintf("sim: need at least one server, got %d", cfg.Servers))
	}
	s := &Sim{
		cfg:      cfg,
		hosts:    server.NewHosts(cfg.Servers),
		byz:      make([]bool, cfg.Servers),
		procs:    make(map[types.ProcID]*tcpnet.Process),
		watchdog: time.NewTimer(actionTimeout),
	}
	s.watchdog.Stop()
	for sid := 1; sid <= cfg.Servers; sid++ {
		s.all = append(s.all, sid)
	}
	return s
}

// NumServers returns S.
func (s *Sim) NumServers() int { return len(s.hosts) }

// SetByzantine marks object sid Byzantine with the given behavior
// (nil keeps the previous behavior, or Honest if none was set). Byzantine
// objects are excluded from liveness accounting.
func (s *Sim) SetByzantine(sid int, b server.Behavior) {
	s.byz[sid-1] = true
	if b != nil {
		s.hosts[sid-1].SetBehavior(b)
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
func (s *Sim) Store(sid int) *server.Store { return s.hosts[sid-1].Store(0) }

// Close crashes every live operation and waits for all client goroutines to
// exit. Always call it (usually via defer) to avoid leaking goroutines.
func (s *Sim) Close() {
	for _, op := range s.ops {
		if !op.done {
			s.Crash(op)
		}
	}
	s.wg.Wait()
}

// --- Operations and the client rendezvous ----------------------------------

// OpFunc is the body of a client operation; it issues rounds through the
// Client and returns the operation's result.
type OpFunc func(c *Client) (types.Value, error)

// action is what a client goroutine hands the driver: its next round, or
// (round nil) its operation's end.
type action struct {
	round  *pendingRound
	result types.Value
	err    error
}

// pendingRound is one in-flight communication round of an operation.
type pendingRound struct {
	spec    proto.RoundSpec
	seq     int
	rd      tcpnet.Round
	stalled error // every reply in, unsatisfied: the error its deadline will deliver
}

// Observed is one reply as seen by a client, in delivery order (a batched
// reply's Msg is zero). The lower-bound harness compares Observed streams
// across paired runs to verify the proofs' indistinguishability claims.
type Observed struct {
	Server int
	Seq    int
	Msg    types.Message
}

// Op is a client operation under simulation.
type Op struct {
	sim    *Sim
	Label  string
	Client types.ProcID
	histID int

	actionCh chan action
	resumeCh chan error

	cur      *pendingRound
	seq      int
	rounds   int
	done     bool
	crashed  bool
	result   types.Value
	err      error
	observed []Observed

	// The scripted link: per server, FIFO, until a directive delivers it.
	pendingReq map[int][]transit
	pendingRep map[int][]transit
}

// transit is a request on its way to an object, or the reply on its way back.
type transit struct {
	seq int // the operation's round number
	req wire.Request
	rsp wire.Response
}

// Client is the protocol-facing handle passed to OpFunc. It implements
// proto.Rounder.
type Client struct {
	op *Op
}

var _ proto.Rounder = (*Client)(nil)

// NumServers implements proto.Rounder.
func (c *Client) NumServers() int { return c.op.sim.NumServers() }

// Round implements proto.Rounder: it posts the round to the driver and
// blocks until the driver completes it (or crashes the client).
func (c *Client) Round(spec proto.RoundSpec) error {
	op := c.op
	if op.crashed {
		return ErrCrashed
	}
	op.seq++
	op.actionCh <- action{round: &pendingRound{spec: spec, seq: op.seq}}
	return <-op.resumeCh
}

// Spawn starts a client operation and blocks until it posts its first round
// or completes. kind/arg feed the history checker (use checker.OpRead with
// types.Bottom for reads).
func (s *Sim) Spawn(label string, client types.ProcID, kind checker.OpKind, arg types.Value, fn OpFunc) *Op {
	op := &Op{
		sim:        s,
		Label:      label,
		Client:     client,
		histID:     -1,
		actionCh:   make(chan action),
		resumeCh:   make(chan error),
		pendingReq: make(map[int][]transit),
		pendingRep: make(map[int][]transit),
	}
	if s.cfg.History != nil {
		op.histID = s.cfg.History.Invoke(client, kind, arg)
	}
	if s.procs[client] == nil {
		s.procs[client] = tcpnet.NewProcess(len(s.hosts))
	}
	s.ops = append(s.ops, op)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		v, err := fn(&Client{op: op})
		op.actionCh <- action{result: v, err: err}
	}()
	s.waitAction(op)
	return op
}

// waitAction blocks until op's goroutine posts its next action (a new round
// or completion) and updates op state accordingly.
func (s *Sim) waitAction(op *Op) {
	s.watchdog.Reset(actionTimeout)
	var a action
	select {
	case a = <-op.actionCh:
		s.watchdog.Stop()
	case <-s.watchdog.C:
		panic(fmt.Sprintf("sim: op %s (%s) stuck outside Round for %v — protocol bug", op.Label, op.Client, actionTimeout))
	}
	op.cur = a.round
	if a.round == nil {
		op.done, op.result, op.err = true, a.result, a.err
		if op.histID >= 0 && a.err == nil {
			s.cfg.History.Respond(op.histID, a.result)
		}
		return
	}
	// The client "sends messages to all objects": the round begins on its
	// identity's process state and what it posts enters transit.
	if _, err := a.round.rd.Begin(s.procs[op.Client], op.Client, 0, a.round.seq, 0, &a.round.spec, op.post); err != nil {
		s.resume(op, err)
	}
}

// post is the scripted link's sending half (a tcpnet.Post). Fire-and-forget
// requests travel like any other: their replies arrive late and are ignored.
func (op *Op) post(sid int, req wire.Request, _ bool) error {
	op.pendingReq[sid] = append(op.pendingReq[sid], transit{seq: op.cur.seq, req: req})
	return nil
}

// resume hands the finished round back to the client — complete, or failed
// with err — and waits for its next action.
func (s *Sim) resume(op *Op, err error) {
	if err == nil {
		op.rounds++
	}
	s.watchdog.Reset(actionTimeout)
	select {
	case op.resumeCh <- err:
		s.watchdog.Stop()
	case <-s.watchdog.C:
		panic(fmt.Sprintf("sim: op %s not waiting for resume — driver bug", op.Label))
	}
	s.waitAction(op)
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
	if op.cur == nil {
		return "", 0, false
	}
	return op.cur.spec.Label, op.cur.seq, true
}

// Observations returns the full reply stream the client has received, in
// delivery order.
func (op *Op) Observations() []Observed {
	return append([]Observed(nil), op.observed...)
}
