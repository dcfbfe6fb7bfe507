package checker

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"robustatomic/internal/types"
)

// mwHist replays a script of (client, kind, value) events against a History.
// Events: "w1+a" = writer 1 invokes write of a; "w1-" = writer 1's pending
// op responds; "r2+"/"r2-x" = reader invoke / respond with x. Ops respond in
// the order given, building arbitrary overlap patterns.
type mwEvent struct {
	invoke bool
	client types.ProcID
	kind   OpKind
	val    types.Value // written value on invoke, returned value on respond
}

func runEvents(t *testing.T, events []mwEvent) *History {
	t.Helper()
	h := &History{}
	open := map[types.ProcID]int{}
	for i, ev := range events {
		if ev.invoke {
			if _, dup := open[ev.client]; dup {
				t.Fatalf("event %d: client %s already has a pending op", i, ev.client)
			}
			open[ev.client] = h.Invoke(ev.client, ev.kind, ev.val)
		} else {
			id, ok := open[ev.client]
			if !ok {
				t.Fatalf("event %d: client %s has no pending op", i, ev.client)
			}
			delete(open, ev.client)
			h.Respond(id, ev.val)
		}
	}
	return h
}

func inv(client types.ProcID, kind OpKind, val types.Value) mwEvent {
	return mwEvent{invoke: true, client: client, kind: kind, val: val}
}

func rsp(client types.ProcID, val types.Value) mwEvent {
	return mwEvent{client: client, val: val}
}

func TestMWSequentialWritersAtomic(t *testing.T) {
	w1, w2, r1 := types.WriterID(1), types.WriterID(2), types.Reader(1)
	h := runEvents(t, []mwEvent{
		inv(w1, OpWrite, "a"), rsp(w1, ""),
		inv(w2, OpWrite, "b"), rsp(w2, ""),
		inv(r1, OpRead, ""), rsp(r1, "b"),
		inv(r1, OpRead, ""), rsp(r1, "b"),
	})
	if err := CheckAtomicMW(h); err != nil {
		t.Fatal(err)
	}
}

func TestMWConcurrentWritersEitherOrder(t *testing.T) {
	// Two overlapping writes: a subsequent read may return either value, and
	// a read chain may settle on one — both histories are atomic.
	for _, winner := range []types.Value{"a", "b"} {
		w1, w2, r1 := types.WriterID(1), types.WriterID(2), types.Reader(1)
		h := runEvents(t, []mwEvent{
			inv(w1, OpWrite, "a"),
			inv(w2, OpWrite, "b"),
			rsp(w1, ""), rsp(w2, ""),
			inv(r1, OpRead, ""), rsp(r1, winner),
			inv(r1, OpRead, ""), rsp(r1, winner),
		})
		if err := CheckAtomicMW(h); err != nil {
			t.Fatalf("winner %s: %v", winner, err)
		}
	}
}

// TestMWCatchesStaleRead is the deliberately non-atomic regression history
// the satellite task calls for: writer 2's write completes strictly after
// writer 1's and strictly before the read begins, yet the read returns
// writer 1's value — stale, though each write alone looks fine.
func TestMWCatchesStaleRead(t *testing.T) {
	w1, w2, r1 := types.WriterID(1), types.WriterID(2), types.Reader(1)
	h := runEvents(t, []mwEvent{
		inv(w1, OpWrite, "w1-a"), rsp(w1, ""),
		inv(w2, OpWrite, "w2-b"), rsp(w2, ""),
		inv(r1, OpRead, ""), rsp(r1, "w1-a"),
	})
	err := CheckAtomicMW(h)
	if err == nil {
		t.Fatal("stale multi-writer read not caught")
	}
	if v, ok := err.(*Violation); !ok || v.Prop != "mw-atomicity(2)" {
		t.Fatalf("violation = %v, want mw-atomicity(2)", err)
	}
}

func TestMWCatchesNewOldInversion(t *testing.T) {
	// Writes by two writers complete in real-time order a then b; overlapping
	// reads by two readers return b then — after the first read completed —
	// a: a new/old inversion no write order can explain.
	w1, w2, r1, r2 := types.WriterID(1), types.WriterID(2), types.Reader(1), types.Reader(2)
	h := runEvents(t, []mwEvent{
		inv(w1, OpWrite, "a"), rsp(w1, ""),
		inv(w2, OpWrite, "b"),
		inv(r1, OpRead, ""), rsp(r1, "b"),
		inv(r2, OpRead, ""), rsp(r2, "a"),
		rsp(w2, ""),
	})
	err := CheckAtomicMW(h)
	if err == nil {
		t.Fatal("new/old inversion not caught")
	}
	if v, ok := err.(*Violation); !ok || v.Prop != "mw-atomicity(4)" {
		t.Fatalf("violation = %v, want mw-atomicity(4)", err)
	}
}

func TestMWCatchesFabricationAndFuture(t *testing.T) {
	w1, r1 := types.WriterID(1), types.Reader(1)
	h := runEvents(t, []mwEvent{
		inv(w1, OpWrite, "a"), rsp(w1, ""),
		inv(r1, OpRead, ""), rsp(r1, "forged"),
	})
	if v, ok := CheckAtomicMW(h).(*Violation); !ok || v.Prop != "mw-atomicity(1)" {
		t.Fatalf("fabricated value: %v", v)
	}
	h2 := runEvents(t, []mwEvent{
		inv(r1, OpRead, ""), rsp(r1, "late"),
		inv(w1, OpWrite, "late"), rsp(w1, ""),
	})
	if v, ok := CheckAtomicMW(h2).(*Violation); !ok || v.Prop != "mw-atomicity(3)" {
		t.Fatalf("future read: %v", v)
	}
}

func TestMWPendingWriteMayOrMayNotTakeEffect(t *testing.T) {
	// A crashed writer's pending write can legally surface later (r1 ⊥ then
	// r2 sees it) — and can legally never surface at all.
	w1, r1, r2 := types.WriterID(1), types.Reader(1), types.Reader(2)
	for _, second := range []types.Value{"", "x"} {
		h := runEvents(t, []mwEvent{
			inv(w1, OpWrite, "x"), // never responds: writer crashed
			inv(r1, OpRead, ""), rsp(r1, ""),
			inv(r2, OpRead, ""), rsp(r2, second),
		})
		if err := CheckAtomicMW(h); err != nil {
			t.Fatalf("second read %q: %v", second, err)
		}
	}
	// But once surfaced, it cannot un-surface.
	h := runEvents(t, []mwEvent{
		inv(w1, OpWrite, "x"),
		inv(r1, OpRead, ""), rsp(r1, "x"),
		inv(r2, OpRead, ""), rsp(r2, ""),
	})
	if err := CheckAtomicMW(h); err == nil {
		t.Fatal("un-surfaced pending write not caught")
	}
}

func TestMWAbandonedWriteMayOrMayNotTakeEffect(t *testing.T) {
	// w1's write of x failed and was abandoned; w1 goes on to write y. Its
	// next operation is no sequentiality violation, and x may never surface,
	// surface before y, or surface after y (the pair it left open can be
	// finished late) — but not on both sides of it.
	w1, r1 := types.WriterID(1), types.Reader(1)
	read := func(h *History, v types.Value) { h.Respond(h.Invoke(r1, OpRead, ""), v) }
	for _, before := range []bool{false, true} {
		for _, after := range [][]types.Value{{"y", "y"}, {"y", "x"}} {
			h := &History{}
			h.Abandon(h.Invoke(w1, OpWrite, "x"))
			if before {
				read(h, "x")
			}
			h.Respond(h.Invoke(w1, OpWrite, "y"), "")
			for _, v := range after {
				read(h, v)
			}
			if err := CheckAtomicMW(h); (err != nil) != (before && after[1] == "x") {
				t.Errorf("x read before y: %v, reads after y %q: %v", before, after, err)
			}
		}
	}
	// Left on w1's queue, the same pending write overlaps w1's next one.
	h := &History{}
	h.Invoke(w1, OpWrite, "x")
	h.Respond(h.Invoke(w1, OpWrite, "y"), "")
	var v *Violation
	if err := CheckAtomicMW(h); !errors.As(err, &v) || v.Prop != "well-formed" {
		t.Fatalf("pending write followed by its client's next: %v, want a well-formed violation", err)
	}
}

func TestMWSearchCatchesDeepViolation(t *testing.T) {
	// A violation none of the fast property checks see: every pairwise
	// real-time constraint is satisfiable, but the three reads' values force
	// a cyclic write order. Writers w1, w2 write concurrently; reader chains
	// observe a→b and b→a through non-overlapping read pairs of two readers.
	w1, w2, r1, r2 := types.WriterID(1), types.WriterID(2), types.Reader(1), types.Reader(2)
	h := runEvents(t, []mwEvent{
		inv(w1, OpWrite, "a"),
		inv(w2, OpWrite, "b"),
		inv(r1, OpRead, ""), rsp(r1, "a"),
		inv(r1, OpRead, ""), rsp(r1, "b"), // r1: a before b
		inv(r2, OpRead, ""), rsp(r2, "b"),
		inv(r2, OpRead, ""), rsp(r2, "a"), // r2: b before a — contradiction
		rsp(w1, ""), rsp(w2, ""),
	})
	err := CheckAtomicMW(h)
	if err == nil {
		t.Fatal("cyclic read order not caught")
	}
	if v, ok := err.(*Violation); !ok || v.Prop != "mw-atomicity" {
		t.Fatalf("violation = %v, want the search to decide", err)
	}
}

func TestMWAgreesWithGenericLinearizabilityChecker(t *testing.T) {
	// Randomized cross-validation on small histories: the specialized MW
	// checker and the generic Wing–Gong search must agree.
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed * 7919))
		h := randomMWHistory(rng)
		if h.Len() > MaxLinearizableOps {
			continue
		}
		lin, err := CheckLinearizable(h)
		if err != nil {
			t.Fatal(err)
		}
		mwErr := CheckAtomicMW(h)
		if mw, ok := mwErr.(*Violation); ok && mw.Prop == "well-formed" {
			continue // duplicate values: outside the specialized checker's domain
		}
		if lin != (mwErr == nil) {
			t.Fatalf("seed %d: generic=%v specialized=%v\nhistory: %v", seed, lin, mwErr, h.Ops())
		}
	}
}

// randomMWHistory builds a random small history over 2 writers and 2
// readers with distinct written values and random overlap, where read
// return values are drawn from written values, ⊥, or (rarely) garbage.
func randomMWHistory(rng *rand.Rand) *History {
	h := &History{}
	type pendingOp struct {
		client types.ProcID
		id     int
		kind   OpKind
	}
	clients := []types.ProcID{types.WriterID(1), types.WriterID(2), types.Reader(1), types.Reader(2)}
	pending := map[types.ProcID]*pendingOp{}
	var written []types.Value
	nextVal := 0
	steps := 4 + rng.Intn(8)
	for i := 0; i < steps; i++ {
		cl := clients[rng.Intn(len(clients))]
		if p := pending[cl]; p != nil {
			ret := types.Bottom
			if p.kind == OpRead {
				switch r := rng.Intn(6); {
				case r == 0 || len(written) == 0:
					ret = types.Bottom
				case r == 1:
					ret = "garbage"
				default:
					ret = written[rng.Intn(len(written))]
				}
			}
			h.Respond(p.id, ret)
			delete(pending, cl)
			continue
		}
		if cl.Kind == types.KindWriter {
			v := types.Value(fmt.Sprintf("v%d", nextVal))
			nextVal++
			pending[cl] = &pendingOp{client: cl, id: h.Invoke(cl, OpWrite, v), kind: OpWrite}
			written = append(written, v)
		} else {
			pending[cl] = &pendingOp{client: cl, id: h.Invoke(cl, OpRead, ""), kind: OpRead}
		}
	}
	return h
}

func TestMWDeleteHistories(t *testing.T) {
	// A write of ⊥ models Delete: a tombstone that later reads observe as
	// "key absent". Sequential install → read → delete → read is atomic.
	w1, r1 := types.WriterID(1), types.Reader(1)
	h := runEvents(t, []mwEvent{
		inv(w1, OpWrite, "a"), rsp(w1, ""),
		inv(r1, OpRead, ""), rsp(r1, "a"),
		inv(w1, OpWrite, types.Bottom), rsp(w1, ""), // delete
		inv(r1, OpRead, ""), rsp(r1, types.Bottom),
	})
	if err := CheckAtomicMW(h); err != nil {
		t.Fatalf("delete then ⊥ read: %v", err)
	}

	// Multiple tombstones are legal (⊥ is exempt from the distinct-values
	// rule) and a concurrent delete lets a read return either state.
	w2, r2 := types.WriterID(2), types.Reader(2)
	for _, seen := range []types.Value{"b", types.Bottom} {
		h := runEvents(t, []mwEvent{
			inv(w1, OpWrite, types.Bottom), rsp(w1, ""), // delete of absent key
			inv(w1, OpWrite, "b"), rsp(w1, ""),
			inv(w2, OpWrite, types.Bottom), // concurrent delete
			inv(r1, OpRead, ""), rsp(r1, seen),
			rsp(w2, ""),
		})
		if err := CheckAtomicMW(h); err != nil {
			t.Fatalf("concurrent delete, read %q: %v", seen, err)
		}
	}

	// Reading the old value after a delete sealed it away is non-atomic:
	// the fast stale check is skipped for delete histories, so this must
	// come out of the exhaustive search.
	h = runEvents(t, []mwEvent{
		inv(w1, OpWrite, "c"), rsp(w1, ""),
		inv(w2, OpWrite, types.Bottom), rsp(w2, ""), // delete completes
		inv(r2, OpRead, ""), rsp(r2, "c"),
	})
	err := CheckAtomicMW(h)
	if err == nil {
		t.Fatal("read of deleted value not caught")
	}
	if v, ok := err.(*Violation); !ok || v.Prop != "mw-atomicity" {
		t.Fatalf("violation = %v, want mw-atomicity from the search", err)
	}

	// Resurrection: once ⊥ surfaced after the delete, the old value cannot
	// come back.
	h = runEvents(t, []mwEvent{
		inv(w1, OpWrite, "d"), rsp(w1, ""),
		inv(w2, OpWrite, types.Bottom), rsp(w2, ""),
		inv(r1, OpRead, ""), rsp(r1, types.Bottom),
		inv(r1, OpRead, ""), rsp(r1, "d"),
	})
	if err := CheckAtomicMW(h); err == nil {
		t.Fatal("resurrected deleted value not caught")
	}
}

func TestMWBudgetNodeCap(t *testing.T) {
	// A tiny node cap on a perfectly atomic history must come back as a
	// BudgetError (undecided) carrying a partial witness, not a Violation.
	w1, r1 := types.WriterID(1), types.Reader(1)
	h := runEvents(t, []mwEvent{
		inv(w1, OpWrite, "a"), rsp(w1, ""),
		inv(r1, OpRead, ""), rsp(r1, "a"),
		inv(w1, OpWrite, "b"), rsp(w1, ""),
		inv(r1, OpRead, ""), rsp(r1, "b"),
		inv(w1, OpWrite, "c"), rsp(w1, ""),
	})
	err := CheckAtomicMWBudget(h, Budget{MaxNodes: 3})
	be, ok := err.(*BudgetError)
	if !ok {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if be.Nodes > 4 {
		t.Fatalf("explored %d nodes past a cap of 3", be.Nodes)
	}
	if be.Linearized <= 0 || be.Linearized >= be.Total {
		t.Fatalf("partial witness %d/%d, want a proper nonempty prefix", be.Linearized, be.Total)
	}
	// The same history with room to breathe is decided atomic.
	if err := CheckAtomicMWBudget(h, Budget{MaxNodes: 1 << 20}); err != nil {
		t.Fatalf("with ample budget: %v", err)
	}
}

func TestMWBudgetDeadline(t *testing.T) {
	// A non-linearizable history whose refutation needs a large exploration:
	// 8 concurrent pending writes, reader 1 surfaces v1..v8 in order, then
	// reader 2 (strictly after) reads v8 and v1 — v1's write already
	// linearized, so the search must exhaust every interleaving to refute.
	// The 1ns deadline trips at the first 1024-node check.
	var events []mwEvent
	for i := 1; i <= 8; i++ {
		events = append(events, inv(types.WriterID(i), OpWrite, types.Value(fmt.Sprintf("v%d", i))))
	}
	r1, r2 := types.Reader(1), types.Reader(2)
	for i := 1; i <= 8; i++ {
		events = append(events, inv(r1, OpRead, ""), rsp(r1, types.Value(fmt.Sprintf("v%d", i))))
	}
	events = append(events,
		inv(r2, OpRead, ""), rsp(r2, "v8"),
		inv(r2, OpRead, ""), rsp(r2, "v1"),
	)
	h := runEvents(t, events)
	err := CheckAtomicMWBudget(h, Budget{Deadline: time.Nanosecond})
	be, ok := err.(*BudgetError)
	if !ok {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if be.Nodes < 1024 {
		t.Fatalf("deadline tripped after %d nodes, before the first 1024-node check", be.Nodes)
	}
	// Unbudgeted, the search proves the violation.
	if v, ok := CheckAtomicMW(h).(*Violation); !ok || v.Prop != "mw-atomicity" {
		t.Fatalf("unbudgeted verdict = %v, want mw-atomicity violation", v)
	}
}
