// One communication round as a state machine: everything a round decides,
// nothing that moves a byte or waits. In: a reply (or a link failure) from an
// object, the firing of its one timer. Out: requests to post, the delay to
// arm the timer for, the round's end. Mux.round drives it, over every link.
package tcpnet

import (
	"fmt"
	"time"

	"robustatomic/internal/config"
	"robustatomic/internal/obs"
	"robustatomic/internal/proto"
	"robustatomic/internal/server"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

// minHedge floors a deferring round's hedge delay (a loopback round takes
// ~0.1 ms; its tail, several).
const minHedge = time.Millisecond

// mResentFull counts the write phases re-sent in full to an object that
// answered a conditioned one `need value` (value-eliding writes): next to
// nothing on a settled cluster; an object that was cut off, restarted blank
// or repaired costs one when it is first heard again.
var mResentFull = obs.Default.Counter("core_write_resent_full_total")

// postFn is a round's way out, passed by Mux.round with every input: it hands
// req to object sid, awaited (the round will be fed that request's
// resolution) or fire-and-forget. An error means the object is unreachable,
// which counts as faulty.
type postFn func(sid int, req wire.Request, awaited bool) error

// round is one in-flight round. Begin it, then feed it every resolution and
// every firing of its timer until one of them ends it. Not safe for
// concurrent use; abandoned by dropping it.
type round struct {
	m    *Mux
	spec proto.RoundSpec
	tmpl wire.Request // From, Epoch and (bare form) Reg of every request
	// traced is set when anyone wants per-object events: the round's own
	// trace, or a merged sub-round's (the Combiner threads each originating
	// flush's trace through its SubRound, so a traced flush keeps its events
	// even when its round rode inside another leader's batch).
	traced bool
	held   uint64 // slots whose requests are still deferred (bit sid)
	// Value-eliding writes: where the link frames nothing a value travels as a
	// pointer, so every request goes out in its full form (RoundSpec.Full, see
	// request); where it frames, an object that answers a conditioned write
	// `need value` is sent that write again in full, once per round (resent,
	// bit sid).
	full   bool
	resent uint64
	// A deferring round first waits out the hedge delay only — four smoothed
	// latencies of such rounds, within [minHedge, timeout/2] — so that a
	// silent-but-connected object cannot turn a wrong suspicion into a
	// RoundTimeout. wait is what the armed timer measures: that delay, then
	// the deadline.
	timeout, wait time.Duration
	begun         time.Time // on the link's clock; set while the round's latency may feed srtt
	outstanding   int       // awaited requests not yet resolved
	lost          int
	// Wrong-epoch refusals: a refusing object contributes nothing to the
	// accumulator, so they are tracked apart. More than t of them prove at
	// least one CORRECT object holds a newer configuration — the round fails
	// at once with the typed redirect instead of burning the deadline.
	wrongEpoch int
	weErr      *WrongEpochError // allocated by the first refusal
}

// begin starts r as a round of m, sent as from against register instance reg
// (a batched spec addresses the instances its Subs name): one request per
// object. begin returns the delay to arm the round's timer for; timeout ≤ 0
// means 5 s.
func (r *round) begin(m *Mux, from types.ProcID, reg int, timeout time.Duration, spec *proto.RoundSpec, post postFn) (time.Duration, error) {
	*r = round{m: m, spec: *spec, traced: spec.Trace != nil, full: !m.link.Framed()}
	r.tmpl = wire.Request{From: from, Epoch: m.epoch.Load()}
	if len(spec.Subs) == 0 {
		r.tmpl.Reg = reg
		// Config-plane rounds (the config register itself) carry the epoch-0
		// wildcard: the config must stay read/writable ACROSS an epoch change,
		// or a client refused for staleness could never learn the new one.
		if reg == config.Reg {
			r.tmpl.Epoch = 0
		}
	} else {
		mMuxBatchSubs.Record(int64(len(spec.Subs)))
		for i := range spec.Subs {
			if spec.Subs[i].Trace != nil {
				r.traced = true
			}
		}
	}
	// Suspicion-ordered sends (suspicion.go): the requests of the held slots
	// — at most t persistent dissenters, almost always none — wait until the
	// round is Done (only a request that mutates is still owed then, so every
	// object receives every write, and per-link FIFO keeps its PREWRITE before
	// its WRITE), until nothing awaited can complete the round, or until the
	// hedge delay passes. Which S−t objects answer a round was never an
	// assumption, so this is timing, not protocol; with nobody held, the loop
	// below is the whole send phase.
	//
	// The send order rotates with the round number, so that no object is
	// always asked (and, on the in-memory link, always heard) last: there the
	// replies arrive in send order and the round stops at Done, which would
	// otherwise leave object S out of every quorum.
	held, probe, first := m.susp.plan()
	r.held = held
	reachable := true
	for i := 0; i < m.n; i++ {
		sid := (first+i)%m.n + 1
		if held&(1<<uint(sid)) != 0 {
			traceEvent(spec, sid, "defer", "")
		} else if !r.send(sid, post, true) {
			reachable = false
		}
	}
	if !reachable {
		r.release(post, true) // an unsuspected object is down: defer nobody
	}
	if r.outstanding == 0 {
		return 0, fmt.Errorf("%w: %s: no object reachable", ErrConnLost, spec.Label)
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	r.timeout, r.wait = timeout, timeout
	if r.held != 0 {
		mDeferred.Inc()
		r.begun = m.link.Now()
		r.wait = min(max(4*time.Duration(m.srtt.Load()), minHedge), timeout/2)
	} else if probe {
		mProbes.Inc()
		traceEvent(spec, 0, "probe", "")
	}
	return r.wait, nil
}

// send builds the round's request to object sid and posts it — when nobody
// will hear the answer, only the parts that write, and nothing if none does.
// Replies are matched by id; the messages carry something request-unique for
// traces (the automata echo it).
func (r *round) send(sid int, post postFn, awaited bool) bool {
	spec, req := &r.spec, r.tmpl
	worth := func(m types.Message) bool { return awaited || server.Mutates(m) }
	if len(spec.Subs) > 0 {
		req.Subs = make([]wire.SubReq, 0, len(spec.Subs))
		for i := range spec.Subs {
			sub := wire.SubReq{Reg: spec.Subs[i].Reg}
			if r.request(&sub.Msg, sid, spec.Subs[i].Req, spec.Subs[i].Full, awaited); worth(sub.Msg) {
				req.Subs = append(req.Subs, sub)
			}
		}
		if len(req.Subs) == 0 {
			return true
		}
	} else if r.request(&req.Msg, sid, spec.Req, spec.Full, awaited); !worth(req.Msg) {
		return true
	}
	return r.post(sid, &req, post, awaited, "send")
}

// request builds one request for object sid in *m: in its full form, where
// there is one, when the link frames nothing, and when nobody will hear the
// answer — a conditioned write is sent only where its refusal can be heard, or
// a deferred object that fell behind would stay behind.
func (r *round) request(m *types.Message, sid int, req func(int) types.Message, full proto.FullForm, awaited bool) {
	if full != nil && (r.full || !awaited) {
		*m = full.FullRequest(sid)
	} else {
		*m = req(sid)
	}
}

// resend answers object sid's reply rp where it says `need value`: the
// conditioned writes it refused go out again in full, they alone, each once,
// and once per object and round — a refusal of the full form is a lie, and
// costs the liar's round nothing more. A part with no full form was never
// conditioned.
func (r *round) resend(rp *Reply, post postFn, awaited bool) {
	spec, sid, req := &r.spec, rp.Sid, r.tmpl
	if r.resent&(1<<uint(sid)) != 0 {
		return
	}
	if len(spec.Subs) == 0 {
		if spec.Full == nil || !rp.Msg.NeedsValue() {
			return
		}
		req.Msg = spec.Full.FullRequest(sid)
	} else {
		// By sub-round, not by sub-reply: a reply that repeats a register buys
		// its sender no second copy.
		for i := range spec.Subs {
			if sub := &spec.Subs[i]; sub.Full != nil && refused(rp.Subs, sub.Reg) {
				req.Subs = append(req.Subs, wire.SubReq{Reg: sub.Reg, Msg: sub.Full.FullRequest(sid)})
			}
		}
		if len(req.Subs) == 0 {
			return
		}
	}
	r.resent |= 1 << uint(sid)
	mResentFull.Inc()
	r.post(sid, &req, post, awaited, "resend")
}

// refused reports whether a batched reply says `need value` for register
// instance reg.
func refused(subs []wire.SubReq, reg int) bool {
	for i := range subs {
		if subs[i].Reg == reg && subs[i].Msg.NeedsValue() {
			return true
		}
	}
	return false
}

// post stamps req — its id, and in its messages something request-unique —
// and posts it to object sid.
func (r *round) post(sid int, req *wire.Request, post postFn, awaited bool, event string) bool {
	req.ID = r.m.nextID.Add(1)
	seq := int(req.ID & (1<<30 - 1))
	if len(req.Subs) == 0 {
		req.Msg.Seq = seq
	}
	for i := range req.Subs {
		req.Subs[i].Msg.Seq = seq
	}
	if err := post(sid, *req, awaited); err != nil {
		if r.traced {
			traceEvent(&r.spec, sid, "skip", err.Error())
		}
		return false
	}
	if r.traced {
		traceEvent(&r.spec, sid, event, "")
	}
	if awaited {
		r.outstanding++
	}
	return true
}

// release posts the deferred requests: awaited, or — the round is over —
// fire-and-forget, and then only what changes the object's state (send).
func (r *round) release(post postFn, awaited bool) {
	for sid := 1; r.held != 0 && sid <= r.m.n; sid++ {
		if r.held&(1<<uint(sid)) != 0 {
			r.send(sid, post, awaited)
		}
	}
	r.held = 0
}

// timerFired feeds the round the firing of its timer: the hedge delay — the
// deferred requests go out, re-arm the timer for the returned rest of the
// deadline — or the deadline, which ends the round with ErrRoundTimeout.
func (r *round) timerFired(post postFn) (time.Duration, error) {
	if r.wait == r.timeout { // not the hedge delay: the deadline
		mMuxTimeouts.Inc()
		return 0, fmt.Errorf("%w: %s", ErrRoundTimeout, r.spec.Label)
	}
	rest := r.timeout - r.wait
	// A round that waited out the hedge delay must not feed it, or a run of
	// them would grow it by 3/8 a round.
	r.wait, r.begun = r.timeout, time.Time{}
	if r.held != 0 {
		mHedged.Inc()
		traceEvent(&r.spec, 0, "hedge", "")
		r.release(post, true)
	}
	return rest, nil
}

// resolve feeds the round the resolution of one awaited request: an object's
// reply (Msg, or Subs for a batch), or the link's failure (errNoReply where
// it could tell that no reply will come). done reports the round over:
// complete (a nil error) or failed.
func (r *round) resolve(rp Reply, post postFn) (done bool, _ error) {
	sid, msg, subs, err := rp.Sid, rp.Msg, rp.Subs, rp.Err
	spec, n := &r.spec, r.m.n
	r.outstanding--
	if err == errNoReply {
		traceEvent(spec, sid, "lost", "")
	} else if err != nil {
		if r.traced {
			traceEvent(spec, sid, "lost", err.Error())
		}
		r.lost++
	} else if msg.Kind == types.MsgWrongEpoch {
		if r.traced {
			traceEvent(spec, sid, "reply", fmt.Sprintf("WRONG_EPOCH(%d)", msg.Pair.TS.Seq))
		}
		r.wrongEpoch++
		if r.weErr == nil {
			r.weErr = &WrongEpochError{Label: spec.Label}
		}
		// The reported epoch rides in Seq, a Byzantine-controlled int64: a
		// negative value would convert to an astronomical uint64 and
		// permanently defeat the refetcher's already-adopted short-circuit,
		// so ignore it. (Genuine epochs start at 1.)
		if s := msg.Pair.TS.Seq; s > 0 {
			if e := uint64(s); e > r.weErr.Epoch {
				r.weErr.Epoch = e
			}
		}
		if !msg.Pair.Val.IsBottom() {
			r.weErr.Hints = append(r.weErr.Hints, msg.Pair.Val)
		}
		if r.wrongEpoch > (n-1)/3 {
			return true, r.weErr
		}
	} else if len(subs) > 0 {
		if r.traced {
			traceSubReplies(spec, sid, subs)
		}
		for _, sub := range subs {
			spec.AddSub(sid, sub.Reg, sub.Msg)
		}
	} else {
		if spec.Trace != nil {
			spec.Trace.Event(sid, "reply", msg.TraceNote())
		}
		spec.Acc.Add(sid, msg)
	}
	done = err == nil && spec.Done()
	if err == nil {
		r.resend(&rp, post, !done) // awaited while the round still needs the answer
	}
	if done {
		r.release(post, false)
		r.m.susp.observe(spec.Verdict())
		if !r.begun.IsZero() { // gain 1/8; a racing round's lost update is tolerable
			r.m.srtt.Add((int64(r.m.link.Now().Sub(r.begun)) - r.m.srtt.Load()) / 8)
		}
		return true, nil
	}
	if r.outstanding == 0 {
		r.release(post, true) // nothing awaited can complete the round
	}
	if r.outstanding > 0 {
		return false, nil
	}
	// Every awaited request resolved (reply or link failure) and the
	// accumulators are still unsatisfied: no later delivery can complete this
	// round. Withheld replies stay outstanding, so this fires only when
	// nothing more can arrive. Any wrong-epoch refusal in the mix makes the
	// redirect the actionable diagnosis first (during a partial activation,
	// fewer than t+1 objects may refuse yet still deny the quorum) — but with
	// ≤ t refusers the redirect is unproven, so the error carries the
	// underlying transient failure as Cause: if the refetch finds nothing
	// newer (a lone Byzantine forgery, or a config not yet certifiable), the
	// caller degrades to the Cause and its ordinary retry path instead of
	// hard-failing.
	cause := fmt.Errorf("%w: %s: all replies in, accumulator unsatisfied", ErrRoundTimeout, spec.Label)
	if r.lost > 0 {
		cause = fmt.Errorf("%w: %s: %d of %d requests failed", ErrConnLost, spec.Label, r.lost, n)
	}
	if r.wrongEpoch > 0 {
		r.weErr.Cause = cause
		return true, r.weErr
	}
	if r.lost == 0 {
		mMuxUnsat.Inc()
	}
	return true, cause
}

// traceEvent posts a round-level event to whoever is tracing this round:
// the spec's own trace when present, otherwise every traced sub-round (a
// combiner-merged frame where only some originating flushes are traced).
func traceEvent(spec *proto.RoundSpec, sid int, kind, note string) {
	if spec.Trace != nil {
		spec.Trace.Event(sid, kind, note)
		return
	}
	for i := range spec.Subs {
		spec.Subs[i].Trace.Event(sid, kind, note)
	}
}

// traceSubReplies reports, per traced sub-round, whether object sid's
// batched reply actually carried that register's sub-bundle — the exact
// information a sub-bundle-dropping daemon hides from the accumulator.
func traceSubReplies(spec *proto.RoundSpec, sid int, subs []wire.SubReq) {
	for i := range spec.Subs {
		note := "SUB MISSING"
		for _, sub := range subs {
			if sub.Reg == spec.Subs[i].Reg {
				note = "sub present"
			}
		}
		spec.Subs[i].Trace.Event(sid, "reply", note)
	}
	if spec.Trace != nil {
		spec.Trace.Event(sid, "reply", fmt.Sprintf("%d/%d subs", len(subs), len(spec.Subs)))
	}
}
