package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"robustatomic/internal/wire"
)

// DeliverRequests delivers every queued (undelivered) request from op to the
// given objects, oldest first, honoring the model's FIFO rule: an object
// processes a pending earlier-round invocation before a later one.
func (s *Sim) DeliverRequests(op *Op, sids ...int) { s.deliverAll(op, 0, sids) }

// DeliverReplies delivers every in-transit reply from the given objects to
// op, oldest first. After each, the client runs: a reply that ends the round
// resumes it until it posts its next round or completes, and the replies
// behind it are late — a round integrates no reply past the one that
// completes it.
func (s *Sim) DeliverReplies(op *Op, sids ...int) { s.deliverAll(op, 1, sids) }

func (s *Sim) deliverAll(op *Op, dir int, sids []int) {
	for _, sid := range sids {
		for ln := op.port.lanes[sid-1]; len(ln.q[dir]) > 0; {
			s.deliver(ln, dir)
			s.settle()
		}
	}
}

// FireTimer takes the virtual clock to the instant op's timer fires: first
// the hedge delay of its in-flight round, if the round deferred anyone (their
// requests enter transit), then its deadline, which fails the round with
// tcpnet.ErrRoundTimeout.
func (s *Sim) FireTimer(op *Op) {
	if t := op.task; !t.done && t.until >= 0 {
		s.now = max(s.now, t.until)
		s.settle()
	}
}

// hedge advances virtual time for an op nothing deliverable can move, if its
// round waits on a hedge delay. False: only the round's deadline is left.
func (s *Sim) hedge(op *Op) bool {
	if t := op.task; t.done || t.until < 0 || t.until >= op.deadline {
		return false
	}
	s.FireTimer(op)
	return true
}

// Step delivers requests then replies for op at the given objects.
func (s *Sim) Step(op *Op, sids ...int) {
	s.DeliverRequests(op, sids...)
	s.DeliverReplies(op, sids...)
}

// StepAll delivers requests and replies for op at every object.
func (s *Sim) StepAll(op *Op) { s.Step(op, s.all...) }

// Crash crashes the client executing op: a pending round fails with
// ErrCrashed, so does every round it may still try, and the operation ends.
// Its invocation stays pending in the history (a crashed client's operation
// never responds).
func (s *Sim) Crash(op *Op) {
	op.crashed = true
	s.settle()
}

// LivenessError reports a wait-freedom violation: a round that cannot
// terminate even though every correct object's reply has been delivered.
type LivenessError struct {
	Op    string
	Round string
	Seq   int
}

// Error implements the error interface.
func (e *LivenessError) Error() string {
	return fmt.Sprintf("sim: wait-freedom violated: op %s round %q (#%d) cannot terminate on all correct replies", e.Op, e.Round, e.Seq)
}

func (op *Op) stuck() error { return &LivenessError{Op: op.Label, Round: op.label, Seq: op.seq} }

// CheckLiveness delivers all requests and replies from every correct
// (non-Byzantine) object, across a hedge delay if one is pending, and fails
// if the current round still cannot terminate — the situation the paper's
// Definition 1 forbids: a round may only keep waiting for objects that are
// faulty in some indistinguishable run, and here all potentially-correct
// replies are in.
func (s *Sim) CheckLiveness(op *Op) error {
	var correct []int
	for i, byz := range s.byz {
		if !byz {
			correct = append(correct, i+1)
		}
	}
	entry := op.seq
	s.Step(op, correct...)
	if !op.done && op.seq == entry && s.hedge(op) {
		s.Step(op, correct...)
	}
	if !op.done && op.seq == entry {
		return op.stuck()
	}
	return nil
}

// RunOp drives op to completion by repeatedly delivering everything from
// every object, firing a hedge delay when that moves nothing. It returns a
// LivenessError if the operation stops making progress (its round cannot
// terminate even with every object's reply).
func (s *Sim) RunOp(op *Op) error {
	for !op.done {
		cur := op.seq
		s.StepAll(op)
		if !op.done && op.seq == cur && !s.hedge(op) {
			// Everything deliverable was delivered, nothing is deferred, and
			// the round is where it was: only its deadline is left.
			return op.stuck()
		}
	}
	return nil
}

// action is one thing a schedule can let happen next: a client goroutine
// runs until it parks again, or the oldest message of a lane's direction is
// delivered.
type action struct {
	t   *task
	ln  *lane
	dir int
}

// RunConcurrent drives the given operations to completion under a seeded
// uniformly random schedule: at each step one deliverable (op, object,
// request|reply) event is chosen at random and delivered; with nothing
// deliverable, the pending hedge delays fire. It returns a LivenessError if
// pending operations stop making progress.
func (s *Sim) RunConcurrent(seed int64, ops ...*Op) error {
	rng := rand.New(rand.NewSource(seed))
	var events []action
	for {
		events = events[:0]
		var pending *Op // the first, if any
		for _, op := range ops {
			if op.done {
				continue
			}
			if pending == nil {
				pending = op
			}
			for _, ln := range op.port.lanes {
				for dir := range ln.q {
					if len(ln.q[dir]) > 0 {
						events = append(events, action{ln: ln, dir: dir})
					}
				}
			}
		}
		if pending == nil {
			return nil
		}
		if len(events) == 0 {
			hedged := false
			for _, op := range ops {
				hedged = s.hedge(op) || hedged
			}
			if hedged {
				continue
			}
			return pending.stuck()
		}
		ev := events[rng.Intn(len(events))]
		s.deliver(ev.ln, ev.dir)
		s.settle()
	}
}

// Message is a message in transit as Run's script sees it: request Req (From
// names the client) on its way to the object at Addr, slot Sid of the sending
// link's view, or (Reply) that object's reply to it on its way back.
type Message struct {
	Sid   int
	Addr  string
	Reply bool
	Req   wire.Request
}

// Hold puts Run's deliveries under a script (nil: none): a message f holds
// stays in transit, and so does what is behind it in its lane — how a test
// names a protocol point, such as a flush held between two of its rounds.
func (s *Sim) Hold(f func(Message) bool) { s.hold = f }

// enabled lists (into acts) what can happen now, and returns the next
// instant at which more can (negative: never).
func (s *Sim) enabled(acts []action) ([]action, time.Duration) {
	next := time.Duration(-1)
	later := func(at time.Duration) {
		if at > s.now && (next < 0 || at < next) {
			next = at
		}
	}
	for _, t := range s.tasks {
		if t.runnable() {
			acts = append(acts, action{t: t})
		} else if !t.done {
			later(t.until)
		}
	}
	for _, ln := range s.lanes {
		for dir, q := range ln.q {
			if len(q) == 0 || s.hold != nil && s.hold(Message{Sid: ln.sid, Addr: ln.addr, Reply: dir == 1, Req: q[0].req}) {
				continue
			}
			if q[0].due <= s.now {
				acts = append(acts, action{ln: ln, dir: dir})
			} else {
				later(q[0].due)
			}
		}
	}
	return acts, next
}

// Run lets the client goroutines run under the seeded schedule (Seed) until
// all of them have ended, or until holds (nil: never): at each step one of
// the things that can happen now — a goroutine runs until it parks again,
// the oldest message of a lane is delivered — is chosen at random, and only
// when nothing can does the virtual clock advance, to the next instant at
// which something can: a message falls due, a timer fires, a sleeper wakes.
// It fails if goroutines remain and nothing ever can again.
func (s *Sim) Run(until func() bool) error {
	var acts []action
	for {
		s.tasks = slices.DeleteFunc(s.tasks, func(t *task) bool { return t.done })
		if len(s.tasks) == 0 || until != nil && until() {
			return nil
		}
		var next time.Duration
		switch acts, next = s.enabled(acts[:0]); {
		case len(acts) == 0 && next < 0:
			return fmt.Errorf("sim: deadlock at %v: %d client goroutines parked, nothing deliverable, no timer armed", s.now, len(s.tasks))
		case len(acts) == 0:
			if until != nil && until() { // a script's hold took effect: before any timer does
				return nil
			}
			s.now = next
		default:
			if a := acts[s.rng.Intn(len(acts))]; a.t != nil {
				s.note(a.t.id)
				s.resume(a.t)
			} else {
				s.deliver(a.ln, a.dir)
			}
		}
	}
}
