package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"robustatomic/internal/tcpnet"
)

// DeliverRequests delivers every queued (undelivered) request from op to the
// given objects, oldest first, honoring the model's FIFO rule: an object
// processes a pending earlier-round invocation before a later one.
func (s *Sim) DeliverRequests(op *Op, sids ...int) {
	for _, sid := range sids {
		for len(op.pendingReq[sid]) > 0 {
			s.deliverRequest(op, sid)
		}
	}
}

// deliverRequest delivers op's oldest queued request to object sid, which
// processes it at once — one Host.Serve step — and whose reply (if any:
// Byzantine objects may withhold) enters the reply transit queue.
func (s *Sim) deliverRequest(op *Op, sid int) {
	tm := op.pendingReq[sid][0]
	op.pendingReq[sid] = op.pendingReq[sid][1:]
	s.trace(TraceEvent{Op: op.Label, Round: tm.seq, Server: sid, Byz: s.byz[sid-1], Late: op.cur == nil || tm.seq != op.cur.seq})
	// (A duplicate would be dropped at the link; delay is the adversary's.)
	if rsp, send, _, _ := s.hosts[sid-1].Serve(tm.req); send {
		op.pendingRep[sid] = append(op.pendingRep[sid], transit{seq: tm.seq, rsp: rsp})
	}
}

// DeliverReplies delivers every in-transit reply from the given objects to
// op, oldest first.
func (s *Sim) DeliverReplies(op *Op, sids ...int) {
	for _, sid := range sids {
		for len(op.pendingRep[sid]) > 0 {
			s.deliverReply(op, sid)
		}
	}
}

// deliverReply delivers the oldest in-transit reply from object sid to op. A
// reply for the current round feeds its state machine; replies from
// already-terminated rounds are received and ignored (the model's "late
// replies"). If the reply ends the round, the client resumes (running until
// it posts its next round or completes) — unless every reply is in and the
// round unsatisfied, where the engine spares real time the wait for a deadline
// that must fail: the client stays parked on a round only FireTimer can end,
// which is what RunOp, RunConcurrent and CheckLiveness report.
func (s *Sim) deliverReply(op *Op, sid int) {
	tm := op.pendingRep[sid][0]
	op.pendingRep[sid] = op.pendingRep[sid][1:]
	op.observed = append(op.observed, Observed{Server: sid, Seq: tm.seq, Msg: tm.rsp.Msg})
	if op.cur == nil || tm.seq != op.cur.seq {
		return // late
	}
	done, err := op.cur.rd.Resolve(sid, tm.rsp.Msg, tm.rsp.Subs, nil, op.post)
	if errors.Is(err, tcpnet.ErrRoundTimeout) {
		op.cur.stalled = err
	} else if done {
		s.resume(op, err)
	}
}

// FireTimer fires the timer of op's in-flight round: first its hedge delay,
// if the round deferred anyone (their requests enter transit), then its
// deadline, which fails the round with tcpnet.ErrRoundTimeout.
func (s *Sim) FireTimer(op *Op) {
	if op.cur == nil {
		return
	}
	err := op.cur.stalled
	if err == nil {
		_, err = op.cur.rd.TimerFired(op.post)
	}
	if err != nil {
		s.resume(op, err)
	}
}

// hedge advances virtual time for an op nothing deliverable can move, if its
// round waits on a hedge delay. False: only the round's deadline is left.
func (s *Sim) hedge(op *Op) bool {
	if op.cur == nil || op.cur.stalled != nil || !op.cur.rd.Hedging() {
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

// Crash crashes the client executing op: if a round is pending it fails with
// ErrCrashed and the operation is marked done. Its invocation stays pending
// in the history (a crashed client's operation never responds).
func (s *Sim) Crash(op *Op) {
	if op.done {
		return
	}
	// The client may ignore ErrCrashed and try more rounds: Round fails them
	// without a rendezvous, so its next action is the operation's end.
	op.crashed = true
	s.resume(op, ErrCrashed)
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

// CheckLiveness delivers all requests and replies from every correct
// (non-Byzantine) object, across a hedge delay if one is pending, and fails
// if the current round still cannot terminate — the situation the paper's
// Definition 1 forbids: a round may only keep waiting for objects that are
// faulty in some indistinguishable run, and here all potentially-correct
// replies are in.
func (s *Sim) CheckLiveness(op *Op) error {
	if op.done || op.cur == nil {
		return nil
	}
	var correct []int
	for i, byz := range s.byz {
		if !byz {
			correct = append(correct, i+1)
		}
	}
	entry := op.cur
	s.Step(op, correct...)
	if op.cur == entry && s.hedge(op) {
		s.Step(op, correct...)
	}
	if op.cur == entry {
		return &LivenessError{Op: op.Label, Round: entry.spec.Label, Seq: entry.seq}
	}
	return nil
}

// RunOp drives op to completion by repeatedly delivering everything from
// every object, firing a hedge delay when that moves nothing. It returns a
// LivenessError if the operation stops making progress (its round cannot
// terminate even with every object's reply).
func (s *Sim) RunOp(op *Op) error {
	for !op.done {
		cur := op.cur
		s.StepAll(op)
		if op.cur == cur && !s.hedge(op) {
			// Everything deliverable was delivered, nothing is deferred, and
			// the round is where it was: only its deadline is left.
			return &LivenessError{Op: op.Label, Round: cur.spec.Label, Seq: cur.seq}
		}
	}
	return nil
}

// RunConcurrent drives the given operations to completion under a seeded
// uniformly random schedule: at each step one deliverable (op, object,
// request|reply) event is chosen at random and delivered; with nothing
// deliverable, the pending hedge delays fire. It returns a LivenessError if
// pending operations stop making progress.
func (s *Sim) RunConcurrent(seed int64, ops ...*Op) error {
	rng := rand.New(rand.NewSource(seed))
	type event struct {
		op  *Op
		sid int
		req bool
	}
	for {
		var events []event
		var pending *Op // the first, if any
		for _, op := range ops {
			if op.done {
				continue
			}
			if pending == nil {
				pending = op
			}
			for sid := 1; sid <= s.NumServers(); sid++ {
				if len(op.pendingReq[sid]) > 0 {
					events = append(events, event{op: op, sid: sid, req: true})
				}
				if len(op.pendingRep[sid]) > 0 {
					events = append(events, event{op: op, sid: sid, req: false})
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
			return &LivenessError{Op: pending.Label, Round: pending.cur.spec.Label, Seq: pending.cur.seq}
		}
		if ev := events[rng.Intn(len(events))]; ev.req {
			s.deliverRequest(ev.op, ev.sid)
		} else {
			s.deliverReply(ev.op, ev.sid)
		}
	}
}
