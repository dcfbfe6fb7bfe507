// Package checker records operation histories and verifies the correctness
// conditions of Section 2.2 of the paper: the four atomicity properties of
// single-writer registers, plus regularity and safety [Lamport86], plus a
// general linearizability check used to cross-validate the specialized
// single-writer checkers.
package checker

import (
	"fmt"
	"sort"
	"sync"

	"robustatomic/internal/types"
)

// OpKind distinguishes reads from writes.
type OpKind int

// Operation kinds.
const (
	OpWrite OpKind = iota + 1
	OpRead
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	if k == OpWrite {
		return "write"
	}
	return "read"
}

// Op is one recorded operation. Invocation and response times come from the
// history's logical clock; Respond < 0 marks an incomplete (pending)
// operation, e.g. one whose client crashed.
type Op struct {
	ID      int
	Client  types.ProcID
	Kind    OpKind
	Arg     types.Value // written value (writes)
	Ret     types.Value // returned value (complete reads)
	Invoke  int64
	Respond int64 // -1 while pending
	Seq     int   // writes: 1-based position in the writer's order
}

// Complete reports whether the operation has responded.
func (o Op) Complete() bool { return o.Respond >= 0 }

// Precedes reports whether o completed before p was invoked (the paper's
// "op1 precedes op2").
func (o Op) Precedes(p Op) bool { return o.Complete() && o.Respond < p.Invoke }

// ConcurrentWith reports whether neither operation precedes the other.
func (o Op) ConcurrentWith(p Op) bool { return !o.Precedes(p) && !p.Precedes(o) }

// String implements fmt.Stringer.
func (o Op) String() string {
	span := fmt.Sprintf("[%d,%d]", o.Invoke, o.Respond)
	if !o.Complete() {
		span = fmt.Sprintf("[%d,…)", o.Invoke)
	}
	if o.Kind == OpWrite {
		return fmt.Sprintf("%s:write_%d(%s)%s", o.Client, o.Seq, o.Arg, span)
	}
	return fmt.Sprintf("%s:read→%s%s", o.Client, o.Ret, span)
}

// History is a concurrency-safe record of register operations under a single
// logical clock. The zero value is ready to use.
type History struct {
	mu     sync.Mutex
	clock  int64
	ops    []Op
	writes int
}

// Invoke records the invocation of an operation and returns its id.
func (h *History) Invoke(client types.ProcID, kind OpKind, arg types.Value) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.clock++
	op := Op{
		ID:      len(h.ops),
		Client:  client,
		Kind:    kind,
		Arg:     arg,
		Invoke:  h.clock,
		Respond: -1,
	}
	if kind == OpWrite {
		h.writes++
		op.Seq = h.writes
	}
	h.ops = append(h.ops, op)
	return op.ID
}

// Respond records the response of operation id; ret is the returned value
// for reads and ignored for writes.
func (h *History) Respond(id int, ret types.Value) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if id < 0 || id >= len(h.ops) {
		panic(fmt.Sprintf("checker: Respond(%d) unknown op", id))
	}
	if h.ops[id].Complete() {
		panic(fmt.Sprintf("checker: op %d responded twice", id))
	}
	h.clock++
	h.ops[id].Respond = h.clock
	h.ops[id].Ret = ret
}

// Abandon moves pending operation id onto a client of its own: its caller
// gave up on it (it failed) and goes on with its next operation, which must
// not count as overlapping it. This is exact, not a weakening: a
// never-responding operation precedes nothing, so a queue of its own keeps
// every constraint it still carries — it may take effect at any point after
// its invocation, or never.
func (h *History) Abandon(id int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if id < 0 || id >= len(h.ops) || h.ops[id].Complete() {
		panic(fmt.Sprintf("checker: Abandon(%d) of no pending op", id))
	}
	// No client identity is negative.
	h.ops[id].Client.Idx = -1 - id
}

// Ops returns a snapshot of all recorded operations, ordered by invocation.
func (h *History) Ops() []Op {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Op, len(h.ops))
	copy(out, h.ops)
	return out
}

// Writes returns the writer's operations in sequence order.
func (h *History) Writes() []Op {
	var out []Op
	for _, op := range h.Ops() {
		if op.Kind == OpWrite {
			out = append(out, op)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Len returns the number of recorded operations.
func (h *History) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.ops)
}

// Violation describes a correctness failure found by a checker.
type Violation struct {
	Prop   string // "atomicity(1)".."atomicity(4)", "regularity", "safety", "well-formed"
	Detail string
	Ops    []Op // the witnesses
}

// Error implements the error interface.
func (v *Violation) Error() string {
	s := fmt.Sprintf("%s violated: %s", v.Prop, v.Detail)
	for _, op := range v.Ops {
		s += "\n  " + op.String()
	}
	return s
}
