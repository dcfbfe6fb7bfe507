package proto

import "robustatomic/internal/types"

// RegAcc is the client side of register addressing (types.Address): the one
// place where a request for registers of an instance is built and its
// replies are unpacked. An operation declares its parts — per register, the
// register-level request and the accumulator that register's replies go to
// (Part) — and runs rounds over all of them or over those still undecided
// (Spec). Each round's request carries one part per register, bare when the
// writers' register is asked alone; every object answers in the same shape,
// so the registers' rounds advance in lockstep and cost one physical
// round-trip; Add fans a reply's parts out to their accumulators, and the
// physical round terminates when every register's round would (sub-round
// accumulators are monotone, so the conjunction is). A regular read or write
// of one register is the one-part use, the atomic read's query rounds the
// (R+1)-part use, an operator's probe a one-object use (tcpnet.Direct).
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

	round []int          // the current round's parts, by index; nil: all
	pick  []types.SubMsg // scratch: a partial round's requests
	req   types.Message  // the current round's request
	full  bool           // req asks every part, under the current view
	reqFn func(int) types.Message

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
	a.full = false // hinted from the old set: rebuild
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
	a.full = false
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

// FullRequest implements FullForm: the round's request as declared.
func (a *RegAcc) FullRequest(int) types.Message { return a.req }

// Spec begins one round — over the parts only lists (by index; the slice is
// the accumulator's until the next Spec), or over every part when only is
// nil — and returns its spec. Requests are the same for every object, and
// runtimes treat a request as immutable (a slow object may still be sent the
// previous round's), so one serves all, and a NEW one is built — never the
// old one patched — when the known-pair set has moved since: steady-state
// rounds over every part allocate nothing.
func (a *RegAcc) Spec(label string, only []int) RoundSpec {
	moved := a.refresh()
	a.round = only
	if only != nil {
		a.pick = a.pick[:0]
		for _, i := range only {
			a.pick = append(a.pick, a.subs[i])
		}
		a.req, a.full = a.request(a.pick), false
	} else if moved || !a.full {
		a.req, a.full = a.request(a.subs), true
	}
	spec := RoundSpec{Label: label, Req: a.reqFn, Acc: a}
	if a.elides {
		spec.Full = a
	}
	return spec
}

// request addresses parts (types.Address copies them) and conditions the
// READs among them on the view.
func (a *RegAcc) request(parts []types.SubMsg) types.Message {
	m := types.Address(parts)
	for i, n := 0, m.NumParts(); i < n; i++ {
		if reg, part := m.Part(i); part.Kind == types.MsgRead1 {
			part.Have = a.have(reg)
		}
	}
	return m
}

// n returns the number of parts in the current round, at the index of the
// part at position i of it.
func (a *RegAcc) n() int {
	if a.round != nil {
		return len(a.round)
	}
	return len(a.subs)
}

func (a *RegAcc) at(i int) int {
	if a.round != nil {
		return a.round[i]
	}
	return i
}

// part returns the index of the part that a reply part for reg at position i
// answers: the round's i-th when the object kept the request's order (every
// correct one does), else whatever a scan finds; -1 for a register the round
// never asked about.
func (a *RegAcc) part(i int, reg types.RegID) int {
	n := a.n()
	if i < n && a.subs[a.at(i)].Reg == reg {
		return a.at(i)
	}
	for k := 0; k < n; k++ {
		if j := a.at(k); a.subs[j].Reg == reg {
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
	if got < a.n() {
		a.seen.Withheld |= 1 << uint(sid)
	}
}

// Done implements Accumulator.
func (a *RegAcc) Done() bool {
	for i, n := 0, a.n(); i < n; i++ {
		if !a.accs[a.at(i)].Done() {
			return false
		}
	}
	return true
}

// Verdict is the operation's Verdict: what the fan-out itself saw (rejected
// elisions, withheld parts) plus, once EVERY part is decided — in this round
// or, for a round over the parts still undecided, an earlier one — the parts'
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
