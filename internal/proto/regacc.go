package proto

import "robustatomic/internal/types"

// RegAcc is the client side of register addressing (types.Address): the one
// place where a request for a register of an instance is built and its reply
// unpacked. An operation declares the ONE register it asks — the
// register-level request and the accumulator the replies go to (Ask) — and
// runs rounds over it (Spec). The request travels bare when it asks the
// writers' register (every client round does) and as a one-part bundle
// otherwise; Add hands the reply's part for the register to the accumulator
// and ignores a reply of any other shape, as it would a reply of the wrong
// kind. An operator's probe is a one-object use (tcpnet.Direct).
//
// It is also where value-eliding reads are done and undone (known.go): with
// a Known set (UseKnown), every READ carries the set's have-list and every
// reply is re-inflated against the set before the accumulator sees it.
// Without one, reads are unconditioned. And it is where a write takes its
// conditioned form (Conditioned): which object is sent which.
//
// Ask before Spec. Not safe for concurrent use, and not to be copied once
// asked.
type RegAcc struct {
	reg types.RegID
	msg types.Message
	acc Accumulator

	req    types.Message // the current round's request
	plain  types.Message // req without its have-list
	hinted bool          // req has a have-list (plain is not req)
	built  bool          // req asks reg, under the current view
	reqFn  func(int) types.Message

	// A write's conditioned form (Conditioned): msg with condVal where its
	// value was, under condFlags, on the condition named, is what the objects
	// outside toFull (bit sid) are asked with.
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

// Ask declares the operation: the rounds ask register reg with msg and hand
// the replies' part for reg to acc.
func (a *RegAcc) Ask(reg types.RegID, msg types.Message, acc Accumulator) {
	if a.reqFn == nil {
		a.reqFn = func(sid int) types.Message {
			if !a.elides || a.toFull&(1<<uint(sid)) != 0 {
				return a.req
			}
			cond := types.SubMsg{Reg: a.reg, Msg: a.msg}
			cond.Msg.Pair.Val, cond.Msg.Have = a.condVal, a.named[:]
			cond.Msg.Flags |= a.condFlags
			return types.Address([]types.SubMsg{cond})
		}
	}
	a.reg, a.msg, a.acc = reg, msg, acc
	a.built = false
}

// Conditioned gives the operation, a write, a conditioned form
// (types.Message.Have): every object outside full (bit sid) is asked with the
// write on the condition that it holds the pair named, val (under flags)
// where the write's value was, and answers MsgNeedValue if it does not.
// Objects in full, those that answer so (RoundSpec.Full) and every object of
// a link that frames nothing are asked with the write as declared.
func (a *RegAcc) Conditioned(named types.Have, val types.Value, flags types.MsgFlags, full uint64) {
	a.named[0], a.condVal, a.condFlags = named, val, flags
	a.toFull, a.elides = full, true
}

// FullRequest implements FullForm: the round's request as declared, a READ
// without its have-list — all a link that frames nothing sends (a value is a
// pointer there; a have-list would only make the objects hash their slots).
func (a *RegAcc) FullRequest(int) types.Message { return a.plain }

// Spec begins one round and returns its spec. Requests are the same for
// every object, and runtimes treat a request as immutable (a slow object may
// still be sent the previous round's), so one serves all, and a NEW one is
// built — never the old one patched — when the known-pair set has moved
// since: steady-state rounds allocate nothing.
func (a *RegAcc) Spec(label string) RoundSpec {
	if moved := a.refresh(); moved || !a.built {
		a.request()
		a.built = true
	}
	spec := RoundSpec{Label: label, Req: a.reqFn, Acc: a}
	if a.elides || a.hinted {
		spec.Full = a
	}
	return spec
}

// request addresses the declared message (types.Address) as the round's
// request, a READ conditioned on the view; plain is the request
// unconditioned — req itself when the READ has no have-list.
func (a *RegAcc) request() {
	part := types.SubMsg{Reg: a.reg, Msg: a.msg}
	a.plain = types.Address([]types.SubMsg{part})
	a.req, a.hinted = a.plain, false
	if part.Msg.Kind == types.MsgRead1 && len(a.haves) > 0 {
		part.Msg.Have = a.haves
		a.req, a.hinted = types.Address([]types.SubMsg{part}), true
	}
}

// Add implements Accumulator.
func (a *RegAcc) Add(sid int, m types.Message) {
	if m.NumParts() != 1 {
		return
	}
	reg, part := m.Part(0)
	if reg != a.reg {
		return
	}
	msg := *part // a copy: the reply itself is never patched
	n, ok := a.admit(sid, &msg)
	if !ok {
		// Elision claimed for a pair the request did not offer: only a faulty
		// object sends that, and it reaches the accumulator no more than a
		// reply it never sent.
		mInflateReject.Inc()
		a.seen.Inflate |= 1 << uint(sid)
		return
	}
	if n > 0 {
		mInflated.Add(n)
	}
	a.acc.Add(sid, msg)
}

// Done implements Accumulator.
func (a *RegAcc) Done() bool { return a.acc.Done() }

// Verdict is the operation's Verdict: the rejected elisions Add saw plus,
// once the accumulator decided, its verdict.
func (a *RegAcc) Verdict() Verdict {
	v := a.seen
	v.Merge(VerdictOf(a.acc))
	return v
}

var _ Accumulator = (*RegAcc)(nil)
