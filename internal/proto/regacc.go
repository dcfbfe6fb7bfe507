package proto

import "robustatomic/internal/types"

// RegAcc is the client side of register addressing (types.Address): the one
// place where a request for registers of an instance is built and its
// replies are unpacked. An operation declares its parts — per register, the
// register-level request and the accumulator that register's replies go to
// (Part) — and runs rounds over all of them (Spec). Each round's request
// carries one part per register, bare when the writers' register is asked
// alone; every object answers in the same shape, so the registers' rounds
// advance in lockstep and cost one physical round-trip; Add fans a reply's
// parts out to their accumulators, and the physical round terminates when
// every register's round would (sub-round accumulators are monotone, so the
// conjunction is). A regular read or write of one register is the one-part
// use — every protocol round's — and an operator's probe a one-object use
// (tcpnet.Direct).
//
// It is also where value-eliding reads are done and undone (known.go): with
// a Known set (UseKnown), every READ part carries its register's have-list
// and every reply part is re-inflated against the set before its accumulator
// sees it. Without one, reads are unconditioned. And it is where a write
// takes its conditioned form (Conditioned): which object is sent which.
//
// The zero value is an operation with no parts yet. Not safe for concurrent
// use, and not to be copied once it has parts.
type RegAcc struct {
	// The parts, in declaration order: each one's register and request, and
	// its accumulator (sub1/acc1 back a one-part operation).
	subs []types.SubMsg
	accs []Accumulator
	sub1 [1]types.SubMsg
	acc1 [1]Accumulator

	req    types.Message // the current round's request
	plain  types.Message // req without its have-lists
	hinted bool          // req has have-lists (plain is not req)
	built  bool          // req asks every part, under the current view
	reqFn  func(int) types.Message

	// A write's conditioned form (Conditioned): the part with condVal where
	// its value was, under condFlags, on the condition named, is what the
	// objects outside toFull (bit sid) are asked with.
	condVal   types.Value
	condFlags types.MsgFlags
	named     [1]types.Have
	toFull    uint64
	elides    bool

	inflater
}

// UseKnown conditions the operation's READs on k (nil: unconditioned).
func (a *RegAcc) UseKnown(k *Known) {
	a.inflater = inflater{known: k}
	a.built = false // hinted from the old set: rebuild
}

// Part declares one more part: the rounds ask register reg with msg and hand
// its replies to acc. It returns the part's index.
func (a *RegAcc) Part(reg types.RegID, msg types.Message, acc Accumulator) int {
	if a.subs == nil {
		a.subs, a.accs = a.sub1[:0], a.acc1[:0]
		a.reqFn = func(sid int) types.Message {
			if !a.elides || a.toFull&(1<<uint(sid)) != 0 {
				return a.req
			}
			cond := a.subs[0]
			cond.Msg.Pair.Val, cond.Msg.Have = a.condVal, a.named[:]
			cond.Msg.Flags |= a.condFlags
			return types.Address([]types.SubMsg{cond})
		}
	}
	a.subs = append(a.subs, types.SubMsg{Reg: reg, Msg: msg})
	a.accs = append(a.accs, acc)
	a.built = false
	return len(a.subs) - 1
}

// Conditioned gives the operation's one part, a write, a conditioned form
// (types.Message.Have): every object outside full (bit sid) is asked with the
// part on the condition that it holds the pair named, val (under flags) where
// the part's value was, and answers MsgNeedValue if it does not. Objects in
// full, those that answer so (RoundSpec.Full) and every object of a link that
// frames nothing are asked with the part as declared. The rounds that follow
// are rounds over the one part.
func (a *RegAcc) Conditioned(named types.Have, val types.Value, flags types.MsgFlags, full uint64) {
	a.named[0], a.condVal, a.condFlags = named, val, flags
	a.toFull, a.elides = full, true
}

// FullRequest implements FullForm: the round's request as declared, READs
// without have-lists — all a link that frames nothing sends (a value is a
// pointer there; a have-list would only make the objects hash their slots).
func (a *RegAcc) FullRequest(int) types.Message { return a.plain }

// Spec begins one round over every part and returns its spec. Requests are
// the same for every object, and runtimes treat a request as immutable (a
// slow object may still be sent the previous round's), so one serves all,
// and a NEW one is built — never the old one patched — when the known-pair
// set has moved since: steady-state rounds allocate nothing.
func (a *RegAcc) Spec(label string) RoundSpec {
	if moved := a.refresh(); moved || !a.built {
		a.request(a.subs)
		a.built = true
	}
	spec := RoundSpec{Label: label, Req: a.reqFn, Acc: a}
	if a.elides || a.hinted {
		spec.Full = a
	}
	return spec
}

// request addresses parts (types.Address copies them) as the round's request
// and conditions the READs among them on the view; plain is the request
// unconditioned — req itself when no READ has a have-list.
func (a *RegAcc) request(parts []types.SubMsg) {
	a.req, a.hinted = types.Address(parts), false
	for i, n := 0, a.req.NumParts(); i < n; i++ {
		if reg, part := a.req.Part(i); part.Kind == types.MsgRead1 {
			part.Have = a.have(reg)
			a.hinted = a.hinted || part.Have != nil
		}
	}
	a.plain = a.req
	if a.hinted {
		a.plain = types.Address(parts)
	}
}

// part returns the index of the part that a reply part for reg at position i
// answers: the i-th when the object kept the request's order (every correct
// one does), else whatever a scan finds; -1 for a register the round never
// asked about.
func (a *RegAcc) part(i int, reg types.RegID) int {
	if i < len(a.subs) && a.subs[i].Reg == reg {
		return i
	}
	for j := range a.subs {
		if a.subs[j].Reg == reg {
			return j
		}
	}
	return -1
}

// Add implements Accumulator.
func (a *RegAcc) Add(sid int, m types.Message) {
	var inflated, rejected int64
	got := 0
	for i, n := 0, m.NumParts(); i < n; i++ {
		reg, part := m.Part(i)
		j := a.part(i, reg)
		if j < 0 {
			continue
		}
		got++
		msg := *part // a copy: the reply itself is never patched
		k, ok := a.admit(sid, reg, &msg)
		if !ok {
			// Elision claimed for a pair the request did not offer: only a
			// faulty object sends that, and it is dropped like a part the
			// object withheld.
			rejected++
			continue
		}
		inflated += k
		a.accs[j].Add(sid, msg)
	}
	if inflated > 0 {
		mInflated.Add(inflated)
	}
	if rejected > 0 {
		mInflateReject.Add(rejected)
		a.seen.Inflate |= 1 << uint(sid)
	}
	if got < len(a.subs) {
		a.seen.Withheld |= 1 << uint(sid)
	}
}

// Done implements Accumulator.
func (a *RegAcc) Done() bool {
	for _, acc := range a.accs {
		if !acc.Done() {
			return false
		}
	}
	return true
}

// Verdict is the operation's Verdict: what the fan-out itself saw (rejected
// elisions, withheld parts) plus, once EVERY part is decided, the parts'
// verdicts merged. A partial decision says nothing: an object serving a
// frozen past agrees on every register but the one that matters.
func (a *RegAcc) Verdict() Verdict {
	v := a.seen
	for _, acc := range a.accs {
		pv := VerdictOf(acc)
		if pv == (Verdict{}) {
			return a.seen
		}
		v.Merge(pv)
	}
	return v
}

var _ Accumulator = (*RegAcc)(nil)
