// Adaptive round complexity: the multi-writer write flows shared by the
// plain (unauthenticated) and secret-token models.
//
// PR 4's multi-writer promotion paid for timestamp discovery on EVERY
// write: a lone writer knows the highest timestamp (its own), concurrent
// writers must discover it, so writes grew from the SWMR-optimal 2 rounds
// to 3. But the paper's lower bounds price rounds against *actual*
// adversarial behavior, and its optimal read is the template: a fast path
// for contention-free executions, a fallback when interference shows. Two
// flows:
//
//   - Writer.Write: the writer optimistically proposes the successor of its
//     own cached timestamp directly in the PREWRITE round; each object's
//     acknowledgement piggybacks the highest timestamp it held before
//     applying the prewrite. A quorum reporting nothing at or above the
//     proposal certifies it — every write that completed before this one
//     began reached a correct member of the quorum, whose report would have
//     exposed it — and the WRITE round finishes the operation: 2 rounds, the
//     SWMR optimum, whenever no foreign writer (or forger) interfered. On a
//     reported-higher reply the failed prewrite itself doubles as the
//     discovery round (its reports are exactly what a discovery round would
//     have collected), so a genuinely contended write costs 3 rounds — the
//     cost before the fast path — and only a Byzantine-inflated report
//     escalates to the certified read (5 rounds, the worst case; the
//     maxDiscoveryLead bound keeps sequence numbers sane either way).
//
//   - Writer.Modify (core.go; the keyed Store's one flush): the certified
//     read-modify-write. Its value DERIVES from the register's current pair,
//     so it cannot take the optimistic form — a prewritten pair is readable
//     as a concurrent write, and a value derived from a stale pair at a
//     dominating timestamp would let a reader resurrect what a foreign
//     writer's completed write replaced. The certified read comes first: one
//     round on a settled register (a fast hit, timestamps only when the
//     writer's own pair is still current), two with the decision procedure;
//     then the two write phases. 3 rounds on a settled shard, and 1 when the
//     callback finds nothing to write (SkipWrite).
//
// What travels in those rounds is DESIGN.md's "Conditioned messages":
// timestamps-only acknowledgements, a WRITE naming its PREWRITE's pair, a
// PREWRITE carrying Modify's edit (types.Delta) — round counts untouched.
//
// Abandoned prewrites (a proposal that lost its certification) are safe: the
// protocol already tolerates a writer crashing between PREWRITE and WRITE,
// and the writer records every proposed timestamp as issued, so a later
// write can never re-issue an abandoned timestamp with a different value
// (which would break the decide procedure's value-agreement invariant). An
// operation that is RETRIED is another matter — it must not take effect
// twice — so a retry finishes the pair the operation issued or fails (Resume).
package core

import (
	"errors"
	"fmt"

	"robustatomic/internal/types"
)

// SkipWrite is the sentinel a Modify callback returns to elide the
// write phases: the certified read still ran (so the caller's view is
// genuinely current), but nothing is installed and the current pair is
// returned unchanged.
var SkipWrite = errors.New("core: modify produced no change, write elided")

// Write stores v adaptively, with the optimistic fast path described in the
// package comment: 2 rounds when the proposal certifies — the uncontended
// case, and the paper's SWMR optimum — 3 under genuine write contention, 5
// when a Byzantine report forces the certified fallback.
func (w *Writer) Write(v types.Value) error {
	if v.IsBottom() {
		return fmt.Errorf("core: cannot write the reserved initial value ⊥")
	}
	w.open = types.Pair{}
	base := w.pw.IssuedTS()
	p := types.Pair{TS: base.Next(w.wid), Val: v}
	if p.TS.Seq <= 0 {
		// Sequence ceiling: only the certified read yields a trustworthy
		// current timestamp to judge exhaustion by.
		return w.writeAtCertified(base, v)
	}
	w.open, w.certified = p, false
	prior, err := w.pw.PreWritePair(p)
	if err != nil {
		return err
	}
	if prior.Less(p.TS) {
		// Certified: nothing at or above the proposal was in circulation when
		// the quorum acknowledged, so the proposal dominates every complete
		// write and the WRITE round can finish the operation.
		w.certified = true
		if err := w.pw.CommitPair(p); err != nil {
			return err
		}
		w.open = types.Pair{}
		return nil
	}
	// Interference. The validation reports are exactly a discovery round's
	// input (uncertified quorum maximum), so reuse them: write at their
	// successor unless the lead is implausible (Byzantine inflation) or
	// overflowing — then only the certified read's genuine timestamp will
	// do. See maxDiscoveryLead for the bound's rationale.
	// The floor passed down is base, not the proposal: re-issuing the
	// abandoned proposal's timestamp is safe HERE because it would carry the
	// same value v (value agreement is per (timestamp, value)); only later
	// operations, which carry other values, must stay above IssuedTS.
	next := prior.Next(w.wid)
	if next.Seq <= 0 || prior.Seq-base.Seq > maxDiscoveryLead {
		return w.writeAtCertified(base, v)
	}
	return w.install(types.Pair{TS: next, Val: v}, types.Delta{})
}

// writeAtCertified installs v at the successor of the certified current
// timestamp (own is the floor the successor must additionally exceed).
func (w *Writer) writeAtCertified(own types.TS, v types.Value) error {
	_, next, err := w.certifiedNext(own)
	if err != nil {
		return err
	}
	if next.Seq <= 0 {
		return fmt.Errorf("core: register sequence space exhausted")
	}
	return w.install(types.Pair{TS: next, Val: v}, types.Delta{})
}

// install writes p — certified: it dominates every write completed before the
// operation began — in both phases, deriving it as from says; p is the
// operation's open pair until its WRITE completes.
func (w *Writer) install(p types.Pair, from types.Delta) error {
	w.open, w.certified = p, true
	if err := w.pw.WriteDerived(p, from); err != nil {
		return err
	}
	w.open = types.Pair{}
	return nil
}

// ErrOvertaken: Resume found a proposal that never certified overtaken. Its
// pair may have been read, so it is not put back at a fresh timestamp.
var ErrOvertaken = errors.New("core: retried write overtaken before its proposal certified")

// Resume finishes the pair the writer's last operation (Write or Modify) put
// into circulation and did not see complete — its PREWRITE and WRITE again,
// same timestamp, same value — and returns it; ok is false, and nothing runs,
// when there is none. It is how a failed operation is retried once its pair
// is in circulation: a reader may have returned the pair and a foreign write
// overwritten it, and a fresh pair carrying the same value would bring it
// back. A proposal its PREWRITE never certified is certified first, by a read
// whose quorum reports nothing above it and nothing at it but itself
// (regular.ReadAcc.Dominates); failing that, Resume returns ErrOvertaken.
func (w *Writer) Resume() (p types.Pair, ok bool, err error) {
	if p = w.open; p.TS.IsZero() {
		return p, false, nil
	}
	if !w.certified {
		if _, _, err := w.certifiedNext(p.TS); err != nil {
			return p, true, err
		}
		if !w.cert.Dominates(p) {
			return p, true, ErrOvertaken
		}
	}
	return p, true, w.install(p, types.Delta{})
}
