// Package regular implements a robust (wait-free, optimally resilient)
// REGULAR register over S = 3t+1 Byzantine-prone storage objects without
// data authentication, with 2-round write phases and 2-round reads — the
// complexity profile of the regular register of Guerraoui & Vukolić [15]
// that Section 5 of the paper composes into time-optimal atomic storage —
// 1-round reads whenever 2t+1 objects' first replies agree (the fast hit).
// The protocol here is our own reconstruction with the same interface,
// model and round complexity (see DESIGN.md for the faithfulness note); it
// is validated by scripted adversarial schedules and large-scale seeded
// randomized model checking against the regularity checker.
//
// The register serves both disciplines: a SINGLE-WRITER register (one owner
// issuing consecutive sequence numbers — the paper's), and the shared
// MULTI-WRITER register of the atomic stack, whose writers jump to
// discovered sequence numbers, whose readers write decided pairs back at
// their own timestamps (WriteBack), and whose read decision runs in the
// relaxed MultiWriter mode (see ReadAcc.MultiWriter and decide.go's
// prewrite-support analysis).
//
// # Protocol
//
// Objects keep, per register instance, a pre-written pair pw and a written
// pair w, both monotone in the lexicographic (Seq, WriterID) timestamp
// order. A single-writer register's timestamps are consecutive (1, 2, 3, …)
// — its read decision's causality analysis depends on it; a multi-writer
// register's writers discover their sequence numbers, and the decision
// relies on prewrite support instead.
//
// Write(v): the writer picks the next timestamp ts and runs two rounds,
// each awaiting S−t ≥ 2t+1 acknowledgements:
//
//	PREWRITE(ts,v): object sets pw := (ts,v) if ts > pw.ts
//	WRITE(ts,v):    object sets w  := (ts,v) if ts > w.ts
//
// A write is complete only after its WRITE round. Key invariants: (i) a
// complete write at level ts leaves w.ts ≥ ts at t+1 correct objects
// forever; (ii) the writer is sequential, so write ts+1 is invoked only
// after write ts completed; (iii) correct objects only ever hold pairs the
// register's writer issued.
//
// Read(): two query rounds, the second only if the first does not settle
// it. Round 1 (READ1) collects (pw, w) states from S−t objects; if 2t+1 of
// them report the same w pair, that pair is the read's result (the fast
// hit: t+1 of the reporters are correct, so it is genuine, and any write
// completed before the read left w at or above its timestamp at S−2t
// correct objects, one of which is among the 2t+1 — see ReadAcc). Otherwise
// round 2 (READ2) re-queries all objects — crucially, its
// requests are sent after round 1's replies were received, which creates
// the causal ordering the decision exploits — and terminates, per the
// adaptive round rule of Definition 1, as soon as the decision procedure
// below yields a pair on the pair of views (and at the latest when every
// correct object has replied).
//
// # The decision procedure
//
// The reader cannot trust any single reply, so it reasons over fault
// assignments. For every set F of at most t objects that is CONSISTENT with
// the two views, it computes λ(F), the highest level that could be the last
// write completed before the read began; it then returns the largest
// reported pair (or ⊥) that, under every consistent F, is genuine and
// dominates λ(F).
//
// Consistency of F — the checks may never reject the true fault set:
//
//   - monotonicity: objects outside F must not report decreasing pw/w
//     timestamps across rounds;
//   - value agreement: objects outside F reporting the same timestamp must
//     report the same value (the sequential writer issues one pair per
//     level);
//   - causality: if an object outside F reported level ℓ in round 1, then
//     write ℓ−1 completed before that reply, hence before round 2 was sent,
//     so 2t+1 objects acknowledged WRITE(ℓ−1) by then; each acknowledger is
//     in F, or unheard from in round 2, or must show w ≥ ℓ−1 in round 2.
//
// λ(F) is the highest reported level ℓ such that |F| plus the number of
// objects outside F whose every known reply shows w.ts ≥ ℓ (vacuously, the
// unheard-from objects) reaches 2t+1: an object that acknowledged WRITE(ℓ)
// before the read began shows w.ts ≥ ℓ in every reply it gives the read, so
// a write completed before the read keeps its level "possible" under the
// true F.
//
// A pair c is genuine under F if c = ⊥ or some object outside F reported
// exactly c: correct objects only hold genuinely written pairs.
//
// Safety: the true fault set F* is consistent, c is genuine under F*, and
// c.ts ≥ λ(F*) ≥ ts_last (the last complete write's t+1 correct
// acknowledgers keep its level possible), so the read returns the last
// complete write's pair or a genuinely written newer one — regularity.
//
// Termination: enumeration of F is exhaustive, so the decision exists
// whenever the views pin the adversary down; the seeded model checker
// (TestStressModelCheck and the randomized suites) validates that the
// decision always exists once every correct object has replied to round 2,
// across fault counts 0..t, Byzantine behavior mixes, and adversarial
// schedules. Enumeration costs O(S^t) — fine for the fault budgets of the
// paper's constructions (t ≤ 5); see DESIGN.md for the engineering note.
package regular
