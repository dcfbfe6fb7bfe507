// Package proto defines the client-side round abstraction shared by every
// protocol implementation and both runtimes (the deterministic simulator,
// and tcpnet's round engine over sockets or objects in this process).
//
// A round follows Definition 1 of the paper: the client sends a message to
// all objects, objects reply immediately, and the round terminates when the
// client has received a "sufficient" set of replies. Sufficiency is the
// adaptive predicate Accumulator.Done: a round may terminate missing an
// object's reply only if that object is faulty in some indistinguishable
// run, and conversely must terminate once every correct object has replied
// (the runtimes' liveness detectors enforce the latter).
package proto

import (
	"math/bits"

	"robustatomic/internal/obs"
	"robustatomic/internal/types"
)

// Accumulator integrates the replies of one round and decides termination.
// Implementations must be monotone: once Done returns true it must keep
// returning true as further replies are added. Monotonicity makes
// multiplexed rounds (several register instances sharing a physical round)
// sound.
type Accumulator interface {
	// Add integrates the reply of object sid (1-based). Duplicate deliveries
	// from the same object must be idempotent.
	Add(sid int, m types.Message)
	// Done reports whether the round may terminate.
	Done() bool
}

// Verdict is what a round that DECIDED something says about the objects that
// answered it, as bitmasks (bit sid): Agree marks those whose report matched
// the decision, the rest those that contradicted it — by a w report other
// than the pair the read decided (W), or an elision claimed for a pair the
// request did not offer (Inflate). Evidence for the transport that ran the
// round (tcpnet's suspicion-ordered sends), never an input to any decision.
type Verdict struct{ Agree, W, Inflate uint64 }

// Dissent returns the objects that contradicted the decision for any reason.
func (v Verdict) Dissent() uint64 { return v.W | v.Inflate }

// Merge folds o into v; an object dissenting anywhere does not agree.
func (v *Verdict) Merge(o Verdict) {
	v.W, v.Inflate = v.W|o.W, v.Inflate|o.Inflate
	v.Agree = (v.Agree | o.Agree) &^ v.Dissent()
}

// VerdictOf returns acc's verdict; none if acc decides nothing.
func VerdictOf(acc Accumulator) Verdict {
	if j, ok := acc.(interface{ Verdict() Verdict }); ok {
		return j.Verdict()
	}
	return Verdict{}
}

// RoundSpec describes one communication round. A spec drives either ONE
// register instance (Req/Acc) or MANY (Subs — a batched round whose
// per-register sub-rounds share one physical message exchange per object;
// when Subs is non-empty, Req and Acc are ignored). Batched rounds exist so
// concurrent flushes of different Store shards coalesce into one frame per
// daemon; only tcpnet's round engine accepts them.
type RoundSpec struct {
	// Label names the round for traces and diagrams (e.g. "PREWRITE").
	Label string
	// Req builds the request for object sid. Runtimes stamp Seq themselves.
	Req func(sid int) types.Message
	// Full, when non-nil, builds the request for object sid with every value
	// in it, where Req may build a conditioned write (types.Message.Have): it
	// is what an object that answered MsgNeedValue is sent next, and what a
	// link that frames nothing sends in the first place — there a value
	// travels as a pointer, and eliding it saves nothing.
	Full FullForm
	// Acc receives replies and decides termination.
	Acc Accumulator
	// Subs holds the per-register sub-rounds of a batched round. Register
	// instances must be distinct within one batch (a reply sub-bundle is
	// routed to its sub-round by register instance).
	Subs []SubRound
	// Trace, when non-nil, receives per-object send/reply/error events from
	// the runtime executing the round. Runtimes must tolerate nil (the
	// untraced common case costs one nil check per event site).
	Trace *obs.RoundTrace
	// Note, when non-nil, annotates a traced round once it completed (e.g.
	// the atomic read's "hit 3/3"); untraced rounds never call it.
	Note func() string
}

// FullForm builds a round's requests with every value in them (RoundSpec.Full;
// *RegAcc implements it — an interface, not a func, so that offering the form
// allocates nothing).
type FullForm interface {
	FullRequest(sid int) types.Message
}

// SubRound is one register instance's share of a batched round.
type SubRound struct {
	// Reg is the register instance the sub-round addresses.
	Reg int
	// Label names the merged-in round (diagnostics; the Observed above the
	// Combiner counts, traces and hooks the original spec's label).
	Label string
	// Req builds the sub-request for object sid, Full (see RoundSpec.Full)
	// the same with every value in it.
	Req  func(sid int) types.Message
	Full FullForm
	// Acc receives this sub-round's replies and decides its termination.
	Acc Accumulator
	// Trace, when non-nil, is the originating round's trace: the Combiner
	// threads it through so a traced flush still sees its per-object events
	// even when its round traveled inside another leader's merged frame.
	Trace *obs.RoundTrace
}

// Done reports whether the spec's round may terminate: the accumulator is
// satisfied, or — for a batched round — every sub-round's accumulator is.
func (s *RoundSpec) Done() bool {
	if len(s.Subs) == 0 {
		return s.Acc.Done()
	}
	for i := range s.Subs {
		if !s.Subs[i].Acc.Done() {
			return false
		}
	}
	return true
}

// Verdict merges the verdicts of the spec's accumulators.
func (s *RoundSpec) Verdict() (v Verdict) {
	if len(s.Subs) == 0 {
		return VerdictOf(s.Acc)
	}
	for i := range s.Subs {
		v.Merge(VerdictOf(s.Subs[i].Acc))
	}
	return v
}

// AddSub feeds one sub-bundle of a batched reply — object sid's reply for
// register instance reg — to the matching sub-round's accumulator. Bundles
// for instances the batch never asked about are ignored (a Byzantine object
// cannot widen the round).
func (s *RoundSpec) AddSub(sid, reg int, m types.Message) {
	for i := range s.Subs {
		if s.Subs[i].Reg == reg {
			s.Subs[i].Acc.Add(sid, m)
		}
	}
}

// Rounder executes rounds on behalf of a client. Implementations:
// sim.Client (deterministic, adversary-scheduled) and tcpnet.Client (real
// sockets, or objects in the same process).
type Rounder interface {
	// Round runs one communication round to completion. It returns an error
	// if the client crashed or the runtime shut down; protocols must
	// propagate it.
	Round(spec RoundSpec) error
	// NumServers returns S, the number of storage objects.
	NumServers() int
}

// CountAcc is the simplest accumulator: done after replies from n distinct
// objects, optionally filtered by a predicate.
type CountAcc struct {
	Need   int
	Filter func(sid int, m types.Message) bool // nil accepts everything
	seen   map[int]bool
}

// NewCountAcc returns a CountAcc waiting for need distinct accepted replies.
func NewCountAcc(need int, filter func(int, types.Message) bool) *CountAcc {
	return &CountAcc{Need: need, Filter: filter, seen: make(map[int]bool, need)}
}

// Add implements Accumulator.
func (a *CountAcc) Add(sid int, m types.Message) {
	if a.Filter != nil && !a.Filter(sid, m) {
		return
	}
	a.seen[sid] = true
}

// Done implements Accumulator.
func (a *CountAcc) Done() bool { return len(a.seen) >= a.Need }

// Count returns the number of accepted distinct repliers so far.
func (a *CountAcc) Count() int { return len(a.seen) }

// AckAcc waits for n MsgAck replies.
func AckAcc(need int) *CountAcc {
	return NewCountAcc(need, func(_ int, m types.Message) bool { return m.Kind == types.MsgAck })
}

// BitAcc is the write phases' accumulator: done after acknowledgements from
// `need` distinct objects, tracked in a bitmask instead of a map — the map
// accumulators' allocations showed up directly in the E9 profile. Alongside
// the count it folds the acknowledgements' piggybacked (PW, W) timestamps
// into a running maximum, the optimistic write's certification input; the
// WRITE round ignores it. The same reports say who is left WITHOUT the pair
// at a timestamp the caller expects (Expect, Lack): the input to the next
// phase's choice of whom to send a conditioned write. Both masks are by
// object id (bit sid, like Verdict's and the round engine's); objects
// outside 1..63 are ignored, which can only delay termination, never fake it
// (the repository's deployments are S = 3t+1 ≤ 62, the decide procedure's
// own bound).
type BitAcc struct {
	need int
	seen uint64 // bit sid: an accepted reply
	max  types.TS
	at   types.TS
	lack uint64 // bit sid: heard, and holding nothing at `at`
}

// NewAckBits returns a BitAcc waiting for need acknowledgements.
func NewAckBits(need int) *BitAcc { return &BitAcc{need: need} }

// Add implements Accumulator.
func (a *BitAcc) Add(sid int, m types.Message) {
	if m.Kind != types.MsgAck || sid < 1 || sid > 63 {
		return
	}
	a.seen |= 1 << uint(sid)
	a.max = types.MaxTS(a.max, types.MaxTS(m.PW.TS, m.W.TS))
	// A PREWRITE's ack reports the timestamps held BEFORE it; the pair it
	// carried sits in pw now unless pw was already past it.
	if types.MaxTS(m.PW.TS, a.at) != a.at && m.W.TS != a.at {
		a.lack |= 1 << uint(sid)
	}
}

// Expect names the timestamp Lack reports on: the pair the acknowledgements
// answer for. Call it before the round.
func (a *BitAcc) Expect(ts types.TS) { a.at = ts }

// Lack returns the objects (bit sid) whose accepted reply showed neither pw
// nor w at the expected timestamp: they cannot apply a write conditioned on
// that pair, so the next phase sends them the value. An object not heard is
// not in it — it is sent the conditioned form and asks if it must.
func (a *BitAcc) Lack() uint64 { return a.lack }

// Done implements Accumulator.
func (a *BitAcc) Done() bool { return bits.OnesCount64(a.seen) >= a.need }

// MaxTS returns the highest piggybacked (PW, W) timestamp accepted so far.
func (a *BitAcc) MaxTS() types.TS { return a.max }

var (
	_ Accumulator = (*CountAcc)(nil)
	_ Accumulator = (*BitAcc)(nil)
)
