package server

import (
	"fmt"
	"math/rand"

	"robustatomic/internal/types"
)

// Behavior customizes how a (possibly Byzantine) object answers a request.
// Reply returns the message to send and whether to send one at all: a false
// second result models an object that withholds its reply (asynchrony makes
// withholding indistinguishable from slowness, which is exactly what the
// lower-bound adversaries exploit).
//
// The model gives Byzantine objects full knowledge of the messages they
// received but no ability to fabricate data they never saw when the
// [DMSS09] secret-token restriction is in force; behaviors honoring that
// restriction only replay observed state (see ReplayOnly).
type Behavior interface {
	Reply(inner *Store, from types.ProcID, m types.Message) (types.Message, bool)
}

// Honest answers faithfully. It is the behavior of correct objects.
type Honest struct{}

// Reply implements Behavior.
func (Honest) Reply(inner *Store, from types.ProcID, m types.Message) (types.Message, bool) {
	return inner.Handle(from, m), true
}

// Silent never replies but still processes the message (its state advances,
// matching a correct-but-slow object whose replies are lost until forever).
type Silent struct{}

// Reply implements Behavior.
func (Silent) Reply(inner *Store, from types.ProcID, m types.Message) (types.Message, bool) {
	inner.Handle(from, m)
	return types.Message{}, false
}

// Forge replaces the object's state with a snapshot the first time it
// replies, then behaves honestly from the forged state onward. This is the
// "forges its state to σ before replying" step of the proofs.
type Forge struct {
	Snap []byte
	done bool
}

// Reply implements Behavior.
func (f *Forge) Reply(inner *Store, from types.ProcID, m types.Message) (types.Message, bool) {
	if !f.done {
		if err := inner.Restore(f.Snap); err != nil {
			// A corrupt snapshot is a harness bug; surface it loudly by
			// answering garbage rather than hiding it.
			return types.Message{Kind: types.MsgState}, true
		}
		f.done = true
	}
	return inner.Handle(from, m), true
}

// Stale answers every read from a frozen past state while silently advancing
// its true state; write-class messages are acknowledged but reads never see
// them. It simulates an object stuck in the past. With Snap set, the frozen
// state is that explicit snapshot (the lower-bound constructions' "forge to
// σ"). With Snap nil, each register instance the object hosts is frozen at
// its state on first touch after injection — the right semantics for
// multi-register objects, where every shard must be served its own past.
type Stale struct {
	Snap   []byte
	frozen *Store            // Snap path: one frozen state for every instance
	perReg map[*Store]*Store // nil-Snap path: per-instance freeze on first touch
}

// Reply implements Behavior.
func (s *Stale) Reply(inner *Store, from types.ProcID, m types.Message) (types.Message, bool) {
	var frozen *Store
	if s.Snap != nil {
		if s.frozen == nil {
			s.frozen = NewStore()
			if err := s.frozen.Restore(s.Snap); err != nil {
				return types.Message{Kind: types.MsgState}, true
			}
		}
		frozen = s.frozen
	} else {
		if s.perReg == nil {
			s.perReg = make(map[*Store]*Store)
		}
		frozen = s.perReg[inner]
		if frozen == nil {
			frozen = inner.Clone()
			s.perReg[inner] = frozen
		}
	}
	reply := inner.Handle(from, m)
	if !Mutates(m) {
		return frozen.Handle(from, m), true
	}
	return reply, true
}

// Garbage fabricates wildly wrong replies: reads see a bogus high-timestamp
// pair with a value that was never written, writes are acknowledged but
// dropped. Because the fabricated pair is unique to this object, it can
// never be certified by t+1 distinct objects — the certification threshold
// is exactly what defeats it.
type Garbage struct {
	Level int64 // fabricated timestamp; huge by default
	Val   types.Value
}

// Reply implements Behavior.
func (g Garbage) Reply(inner *Store, from types.ProcID, m types.Message) (types.Message, bool) {
	level := g.Level
	if level == 0 {
		level = 1 << 40
	}
	val := g.Val
	if val == types.Bottom {
		val = "forged"
	}
	fake := types.Pair{TS: types.At(level), Val: val}
	reply := types.ReplyTo(&m)
	for i, n := 0, m.NumParts(); i < n; i++ {
		_, req := m.Part(i)
		_, rsp := reply.Part(i)
		switch req.Kind {
		case types.MsgRead1:
			*rsp = types.Message{Kind: types.MsgState, PW: fake, W: fake}
		case types.MsgABDQuery:
			*rsp = types.Message{Kind: types.MsgABDVal, Pair: fake}
		case types.MsgPreWrite:
			// Poison the validation piggyback too: the ack's prior-state report
			// carries the fabricated timestamp, forcing the optimistic write's
			// fallback on every attempt (a liveness nuisance the adaptive flow
			// bounds, never a safety breach — the report is uncertified).
			*rsp = types.Message{Kind: types.MsgAck, PW: fake, W: fake}
		default:
			*rsp = types.Message{Kind: types.MsgAck}
		}
	}
	reply.Seq = m.Seq
	return reply, true
}

// Equivocate answers different client kinds with different behaviors — the
// classic split-brain attack (e.g. honest to the writer, stale to readers).
type Equivocate struct {
	Writer  Behavior // nil → Honest
	Readers Behavior // nil → Honest
}

// Reply implements Behavior.
func (e Equivocate) Reply(inner *Store, from types.ProcID, m types.Message) (types.Message, bool) {
	b := e.Readers
	if from.Kind == types.KindWriter {
		b = e.Writer
	}
	if b == nil {
		b = Honest{}
	}
	return b.Reply(inner, from, m)
}

// ReplayOnly is the strongest attack permitted under the [DMSS09]
// secret-token restriction: the object may answer with any (pair, token)
// tuple it has ever legitimately held — including stale ones — but cannot
// attach a valid token to a value it never received. It replays a uniformly
// chosen historical state per reply.
type ReplayOnly struct {
	Rand  *rand.Rand
	hist  []*Store
	limit int
}

// Reply implements Behavior.
func (r *ReplayOnly) Reply(inner *Store, from types.ProcID, m types.Message) (types.Message, bool) {
	// Record the pre-message state; bound history to keep memory finite.
	if r.limit == 0 {
		r.limit = 64
	}
	if len(r.hist) < r.limit {
		r.hist = append(r.hist, inner.Clone())
	}
	reply := inner.Handle(from, m)
	if len(r.hist) > 0 && r.Rand != nil {
		old := r.hist[r.Rand.Intn(len(r.hist))]
		stale := old.Handle(from, m)
		stale.Seq = m.Seq
		return stale, true
	}
	return reply, true
}

// FalseElide attacks value-eliding reads (see RegState.read): it answers
// every READ with slots marked "elided" whatever the request offered,
// cycling through the three lies the mechanism must survive — the object's
// true timestamps with the values withheld (elision of pairs the client may
// never have offered), the oldest timestamp the client DID offer (a stale
// pair passed off as current: exactly the reply an object serving its past
// could send in full), and a timestamp nobody ever wrote. The first and
// last are dropped by the client like withheld replies; the second inflates
// to a genuine old pair the decision procedure already tolerates from up to
// t objects. Writes are applied and acknowledged honestly.
type FalseElide struct {
	n int
}

// Reply implements Behavior.
func (f *FalseElide) Reply(inner *Store, from types.ProcID, m types.Message) (types.Message, bool) {
	reply := inner.Handle(from, m)
	for i, n := 0, m.NumParts(); i < n; i++ {
		_, req := m.Part(i)
		_, rsp := reply.Part(i)
		f.lie(req, rsp)
	}
	return reply, true
}

// lie rewrites one STATE reply into the next false elision claim.
func (f *FalseElide) lie(req, reply *types.Message) {
	if reply.Kind != types.MsgState {
		return
	}
	f.n++
	switch f.n % 3 {
	case 1: // un-offered: true timestamps, values withheld regardless
	case 2: // stale: the oldest pair the client says it holds
		if len(req.Have) == 0 {
			return // nothing offered: answer honestly this once
		}
		old := req.Have[0].TS
		for _, h := range req.Have[1:] {
			if h.TS.Less(old) {
				old = h.TS
			}
		}
		reply.PW.TS, reply.W.TS = old, old
	default: // forged: a timestamp no writer issued
		forged := types.At(1<<40 + int64(f.n))
		reply.PW.TS, reply.W.TS = forged, forged
	}
	reply.PW.Val, reply.W.Val = "", ""
	reply.Flags |= types.FlagElidedPW | types.FlagElidedW
}

// FalseNeed and FalseAck attack value-eliding writes (see RegState.written)
// from either side of the refusal. FalseNeed answers every write `need
// value` and applies none, conditioned or not: the client re-sends in full
// once per round and is refused again — what an object that drops its writes
// costs, plus one bounded re-send. FalseAck acknowledges every CONDITIONED
// write without applying it — an ack for a reference it cannot hold — which
// is the acknowledged-but-dropped write Garbage already sends. Everything
// else both answer honestly.
type (
	FalseNeed struct{}
	FalseAck  struct{}
)

// Reply implements Behavior.
func (FalseNeed) Reply(inner *Store, from types.ProcID, m types.Message) (types.Message, bool) {
	return lieOnWrites(inner, m, func(*types.Message) bool { return true }, types.MsgNeedValue), true
}

// Reply implements Behavior.
func (FalseAck) Reply(inner *Store, from types.ProcID, m types.Message) (types.Message, bool) {
	return lieOnWrites(inner, m, func(req *types.Message) bool { return len(req.Have) > 0 }, types.MsgAck), true
}

// lieOnWrites handles m honestly but for the writes among its parts that
// skip selects: those are not applied, and answered with a reply of the
// given kind carrying the register's true timestamps.
func lieOnWrites(inner *Store, m types.Message, skip func(*types.Message) bool, kind types.MsgKind) types.Message {
	var rs readStats
	reply := types.ReplyTo(&m)
	for i, n := 0, m.NumParts(); i < n; i++ {
		id, req := m.Part(i)
		_, rsp := reply.Part(i)
		if Mutates(*req) && skip(req) {
			st := inner.reg(id)
			rsp.Kind, rsp.PW.TS, rsp.W.TS = kind, st.PW.TS, st.W.TS
			continue
		}
		inner.handleReg(req, id, rsp, &rs)
	}
	reply.Seq = m.Seq
	return reply
}

// Flaky alternates between an inner behavior and silence.
type Flaky struct {
	Inner Behavior
	Rand  *rand.Rand
	// DropProb in [0,1]; default 0.5.
	DropProb float64
}

// Reply implements Behavior.
func (f Flaky) Reply(inner *Store, from types.ProcID, m types.Message) (types.Message, bool) {
	p := f.DropProb
	if p == 0 {
		p = 0.5
	}
	b := f.Inner
	if b == nil {
		b = Honest{}
	}
	msg, ok := b.Reply(inner, from, m)
	if !ok {
		return msg, false
	}
	if f.Rand != nil && f.Rand.Float64() < p {
		return types.Message{}, false
	}
	return msg, ok
}

// NamedBehavior builds the injectable fault of that name — the one
// vocabulary of storaged -chaos, Cluster.InjectFault and the torture
// schedules: "silent", "garbage", "stale", "equivocate", "falseelide", or
// "flaky" (rng and drop are its coin: seed it per object, or t flaky objects
// drop the same messages and act as one).
func NamedBehavior(mode string, rng *rand.Rand, drop float64) (Behavior, error) {
	switch mode {
	case "silent":
		return Silent{}, nil
	case "garbage":
		return Garbage{Level: 1 << 30, Val: "forged"}, nil
	case "stale":
		// No explicit snapshot: every register instance the object hosts is
		// frozen at its own state when the fault first bites, so staleness
		// attacks stay meaningful per shard.
		return &Stale{}, nil
	case "equivocate":
		return Equivocate{Readers: &Stale{}}, nil
	case "falseelide":
		return &FalseElide{}, nil
	case "flaky":
		return Flaky{Rand: rng, DropProb: drop}, nil
	}
	return nil, fmt.Errorf("server: unknown fault mode %q", mode)
}

var (
	_ Behavior = Honest{}
	_ Behavior = Silent{}
	_ Behavior = (*Forge)(nil)
	_ Behavior = (*Stale)(nil)
	_ Behavior = Garbage{}
	_ Behavior = Equivocate{}
	_ Behavior = (*ReplayOnly)(nil)
	_ Behavior = (*FalseElide)(nil)
	_ Behavior = FalseNeed{}
	_ Behavior = FalseAck{}
	_ Behavior = Flaky{}
)
