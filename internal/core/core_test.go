package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"robustatomic/internal/checker"
	"robustatomic/internal/proto"
	"robustatomic/internal/quorum"
	"robustatomic/internal/server"
	"robustatomic/internal/sim"
	"robustatomic/internal/types"
)

func th(t *testing.T, s, tt int) quorum.Thresholds {
	t.Helper()
	out, err := quorum.NewThresholds(s, tt)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// cluster tracks per-client protocol state across simulated operations.
// Handles are rebuilt per operation, but — like the handles of one Store
// shard — they all share one known-pair set, so every test here runs with
// value-eliding reads warm.
type cluster struct {
	thr     quorum.Thresholds
	readers int
	writeTS types.TS
	seqs    map[int]int64 // reader idx → write-back seq
	known   *proto.Known
}

func newCluster(thr quorum.Thresholds, readers int) *cluster {
	return &cluster{thr: thr, readers: readers, seqs: make(map[int]int64, readers), known: proto.NewKnown(thr)}
}

func (cl *cluster) writeOp(v types.Value) sim.OpFunc {
	return func(c *sim.Client) (types.Value, error) {
		w := NewWriterAt(c, cl.thr, 0, cl.writeTS)
		w.UseKnown(cl.known)
		if err := w.Write(v); err != nil {
			return types.Bottom, err
		}
		cl.writeTS = w.LastTS()
		return types.Bottom, nil
	}
}

// Reads completed by every cluster of the package's tests, and how many of
// them took one round: the model check prints the ratio.
var readsDone, readsOneRound atomic.Int64

func (cl *cluster) readOp(idx int) sim.OpFunc {
	return func(c *sim.Client) (types.Value, error) {
		r := NewReaderAt(c, cl.thr, idx, cl.readers, cl.seqs[idx])
		r.UseKnown(cl.known)
		v, err := r.Read()
		if err != nil {
			return types.Bottom, err
		}
		cl.seqs[idx] = r.Seq()
		readsDone.Add(1)
		readsOneRound.Add(int64(r.OneRound))
		return v, nil
	}
}

func mustRun(t *testing.T, s *sim.Sim, op *sim.Op) types.Value {
	t.Helper()
	if err := s.RunOp(op); err != nil {
		t.Fatal(err)
	}
	v, err := op.Result()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestRoundComplexity(t *testing.T) {
	// The headline numbers of the adaptive multi-writer register: 2-round
	// writes when the optimistic proposal certifies (the uncontended case —
	// the paper's SWMR optimum, recovered), and — since the adaptive read —
	// 1-round reads on a STABLE register: the first query round's replies
	// agree on every register (the fast hit, no decision round) and exhibit
	// a full quorum of w-reports at the chosen timestamp, certifying it as
	// completely written, so the write-back is elided too. Prop. 1's
	// 4-round worst case survives in executions where the evidence falls
	// short — see TestReadFallbackOnIncompleteWrite.
	thr := th(t, 4, 1)
	cl := newCluster(thr, 2)
	s := sim.New(sim.Config{Servers: 4})
	defer s.Close()
	w := s.Spawn("w", types.Writer, checker.OpWrite, "a", cl.writeOp("a"))
	mustRun(t, s, w)
	if w.Rounds() != 2 {
		t.Errorf("write rounds = %d, want 2", w.Rounds())
	}
	rd := s.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, cl.readOp(1))
	if v := mustRun(t, s, rd); v != "a" {
		t.Errorf("read = %q, want a", v)
	}
	if rd.Rounds() != 1 {
		t.Errorf("stable read rounds = %d, want 1 (fast hit, write-back elided)", rd.Rounds())
	}
}

func TestReadFallbackOnIncompleteWrite(t *testing.T) {
	// The executions behind Prop. 1's lower bound still pay 4 rounds: the
	// write completed on objects {1,2,3} only, and the read's query quorum
	// is {1,2,4} — object 4 contributes no w-report at the chosen
	// timestamp, so w-support is 2 < S−t and the read must re-assert the
	// pair through the full 2-round write-back before returning.
	thr := th(t, 4, 1)
	cl := newCluster(thr, 2)
	s := sim.New(sim.Config{Servers: 4})
	defer s.Close()
	w := s.Spawn("w", types.Writer, checker.OpWrite, "a", cl.writeOp("a"))
	s.Step(w, 1, 2, 3) // PREWRITE reaches {1,2,3}
	s.Step(w, 1, 2, 3) // WRITE reaches {1,2,3}
	if !w.Done() {
		t.Fatal("write did not complete on {1,2,3}")
	}
	var rdr *Reader
	rd := s.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, func(c *sim.Client) (types.Value, error) {
		rdr = NewReaderAt(c, cl.thr, 1, cl.readers, 0)
		return rdr.Read()
	})
	s.Step(rd, 1, 2, 4) // AREAD1: object 4 never saw the write
	s.Step(rd, 1, 2, 4) // AREAD2: w-support for "a" is {1,2} < S−t
	s.Step(rd, 1, 2, 3) // write-back PREWRITE
	s.Step(rd, 1, 2, 3) // write-back WRITE
	if !rd.Done() {
		t.Fatal("read did not complete")
	}
	if v, err := rd.Result(); err != nil || v != "a" {
		t.Fatalf("read = %q, %v; want a", v, err)
	}
	if rd.Rounds() != 4 {
		t.Errorf("uncertain read rounds = %d, want 4 (full write-back)", rd.Rounds())
	}
	if rdr.Elided {
		t.Error("read of an incompletely-written pair must not elide the write-back")
	}
}

func TestInitialReadBottom(t *testing.T) {
	thr := th(t, 4, 1)
	cl := newCluster(thr, 2)
	s := sim.New(sim.Config{Servers: 4})
	defer s.Close()
	rd := s.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, cl.readOp(1))
	if v := mustRun(t, s, rd); !v.IsBottom() {
		t.Errorf("initial read = %q", v)
	}
}

func TestSequentialReadsSeeWrites(t *testing.T) {
	thr := th(t, 7, 2)
	cl := newCluster(thr, 3)
	s := sim.New(sim.Config{Servers: 7})
	defer s.Close()
	for i := 1; i <= 4; i++ {
		v := types.Value(fmt.Sprintf("v%d", i))
		mustRun(t, s, s.Spawn(fmt.Sprintf("w%d", i), types.Writer, checker.OpWrite, v, cl.writeOp(v)))
		for r := 1; r <= 3; r++ {
			rd := s.Spawn(fmt.Sprintf("rd%d-%d", i, r), types.Reader(r), checker.OpRead, types.Bottom, cl.readOp(r))
			if got := mustRun(t, s, rd); got != v {
				t.Errorf("reader %d after write %d: %q", r, i, got)
			}
		}
	}
}

func TestReadersSeeOtherReadersWriteBacks(t *testing.T) {
	// The mechanism behind atomicity property (4): reader 1 reads "a" while
	// the write is in flight; after r1 completes, reader 2 must also see
	// "a" even though the writer's own register still lacks a full quorum.
	thr := th(t, 4, 1)
	cl := newCluster(thr, 2)
	s := sim.New(sim.Config{Servers: 4})
	defer s.Close()
	// Complete the PREWRITE quorum (which with the adaptive fast path is
	// the write's first round) and leave WRITE entirely undelivered, then
	// crash: only pw carries (1,a).
	w := s.Spawn("w", types.Writer, checker.OpWrite, "a", cl.writeOp("a"))
	s.Step(w, 1, 2, 3) // PREWRITE
	s.Crash(w)
	r1 := s.Spawn("r1", types.Reader(1), checker.OpRead, types.Bottom, cl.readOp(1))
	v1 := mustRun(t, s, r1)
	r2 := s.Spawn("r2", types.Reader(2), checker.OpRead, types.Bottom, cl.readOp(2))
	v2 := mustRun(t, s, r2)
	if v1 == "a" && v2 != "a" {
		t.Fatalf("new/old inversion: r1=%q then r2=%q", v1, v2)
	}
}

func TestAtomicDespiteByzantine(t *testing.T) {
	for _, tt := range []int{1, 2} {
		S := 3*tt + 1
		thr := th(t, S, tt)
		for _, name := range []string{"silent", "garbage", "stale", "equivocate"} {
			t.Run(fmt.Sprintf("t=%d/%s", tt, name), func(t *testing.T) {
				cl := newCluster(thr, 2)
				h := &checker.History{}
				s := sim.New(sim.Config{Servers: S, History: h})
				defer s.Close()
				mustRun(t, s, s.Spawn("w1", types.Writer, checker.OpWrite, "a", cl.writeOp("a")))
				for i := 1; i <= tt; i++ {
					switch name {
					case "silent":
						s.SetByzantine(i, server.Silent{})
					case "garbage":
						s.SetByzantine(i, server.Garbage{})
					case "stale":
						s.SetByzantine(i, &server.Stale{Snap: s.Snapshot(i)})
					case "equivocate":
						s.SetByzantine(i, server.Equivocate{Readers: &server.Stale{Snap: s.Snapshot(i)}})
					}
				}
				mustRun(t, s, s.Spawn("w2", types.Writer, checker.OpWrite, "b", cl.writeOp("b")))
				rd := s.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, cl.readOp(1))
				for !rd.Done() {
					if err := s.CheckLiveness(rd); err != nil {
						t.Fatalf("liveness: %v", err)
					}
				}
				if v, _ := rd.Result(); v != "b" {
					t.Errorf("read = %q, want b", v)
				}
				rd2 := s.Spawn("rd2", types.Reader(2), checker.OpRead, types.Bottom, cl.readOp(2))
				if v := mustRun(t, s, rd2); v != "b" {
					t.Errorf("second read = %q, want b", v)
				}
				if err := checker.CheckAtomic(h); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

func TestRandomizedModelCheckAtomicity(t *testing.T) {
	// The core validation: seeded random schedules, random Byzantine
	// subsets/behaviors, sequential writes concurrent with overlapping
	// reads by multiple readers; the complete history must be atomic
	// (properties (1)-(4)), and small histories are cross-checked with the
	// generic linearizability checker.
	seeds := 300
	if testing.Short() {
		seeds = 20
	}
	done, one := readsDone.Load(), readsOneRound.Load()
	t.Cleanup(func() { // runs once the parallel seeds are through
		done, one = readsDone.Load()-done, readsOneRound.Load()-one
		t.Logf("%d reads under random schedules and faults, %d in one round (hit ratio %.2f)", done, one, float64(one)/float64(max(done, 1)))
		if one == 0 {
			t.Error("no read took the fast hit: the model check no longer exercises it")
		}
	})
	for seed := int64(0); seed < int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runAtomicSchedule(t, seed)
		})
	}
}

func runAtomicSchedule(t *testing.T, seed int64) {
	rng, alt := rand.New(rand.NewSource(seed*104729)), rand.New(rand.NewSource(seed*7919+30))
	tt := 1 + rng.Intn(2)
	S := 3*tt + 1
	thr := th(t, S, tt)
	const R = 3
	cl := newCluster(thr, R)
	h := &checker.History{}
	s := sim.New(sim.Config{Servers: S, History: h})
	defer s.Close()
	nByz := rng.Intn(tt + 1)
	perm := rng.Perm(S)
	for i := 0; i < nByz; i++ {
		sid := perm[i] + 1
		switch rng.Intn(6) {
		case 0:
			s.SetByzantine(sid, server.Silent{})
		case 5:
			s.SetByzantine(sid, &server.FalseElide{})
		case 1:
			s.SetByzantine(sid, server.Garbage{Level: int64(rng.Intn(8)), Val: "evil"})
		case 2:
			s.SetByzantine(sid, &server.ReplayOnly{Rand: rng})
		case 3:
			s.SetByzantine(sid, &server.Stale{Snap: s.Snapshot(sid)})
		default:
			s.SetByzantine(sid, server.Flaky{Rand: rng, DropProb: 0.3})
		}
		// The liars of value-eliding writes join the mix on a stream of their
		// own, so every seed keeps the schedule and the faults it always had.
		switch alt.Intn(8) {
		case 0:
			s.SetByzantine(sid, server.FalseNeed{})
		case 1:
			s.SetByzantine(sid, server.FalseAck{})
		}
	}
	readers := make([]*sim.Op, R)
	for i := 1; i <= R; i++ {
		readers[i-1] = s.Spawn(fmt.Sprintf("r%d", i), types.Reader(i), checker.OpRead, types.Bottom, cl.readOp(i))
	}
	writes := 2 + rng.Intn(2)
	for i := 1; i <= writes; i++ {
		v := types.Value(fmt.Sprintf("v%d", i))
		w := s.Spawn(fmt.Sprintf("w%d", i), types.Writer, checker.OpWrite, v, cl.writeOp(v))
		ops := append([]*sim.Op{w}, readers...)
		if err := s.RunConcurrent(seed*31+int64(i), ops...); err != nil {
			t.Fatalf("liveness: %v", err)
		}
		// Replace finished readers with fresh reads to keep contention up.
		for j, rd := range readers {
			if rd.Done() {
				readers[j] = s.Spawn(fmt.Sprintf("r%d.%d", j+1, i), types.Reader(j+1), checker.OpRead, types.Bottom, cl.readOp(j+1))
			}
		}
	}
	for _, rd := range readers {
		if err := s.RunOp(rd); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
	if err := checker.CheckAtomic(h); err != nil {
		t.Fatal(err)
	}
	if h.Len() <= checker.MaxLinearizableOps {
		lin, err := checker.CheckLinearizable(h)
		if err != nil {
			t.Fatal(err)
		}
		if !lin {
			t.Fatal("history not linearizable despite passing atomicity properties")
		}
	}
}

func TestDiscoveryOverflowFallsBackToCertified(t *testing.T) {
	// A Byzantine object forging Seq=MaxInt64 — now in the optimistic
	// prewrite's validation piggyback (Garbage poisons those acks too) —
	// must not wedge the register's writers: the implausible lead routes
	// the fallback past the forged reports to the certified read, whose
	// decision only yields genuine timestamps. Writes keep succeeding at
	// sane sequence numbers for the whole run.
	thr := th(t, 4, 1)
	cl := newCluster(thr, 2)
	s := sim.New(sim.Config{Servers: 4})
	defer s.Close()
	mustRun(t, s, s.Spawn("w0", types.Writer, checker.OpWrite, "a", cl.writeOp("a")))
	s.SetByzantine(1, server.Garbage{Level: math.MaxInt64, Val: "evil"})
	for i := 2; i <= 4; i++ {
		v := types.Value(fmt.Sprintf("v%d", i))
		mustRun(t, s, s.Spawn(fmt.Sprintf("w%d", i), types.Writer, checker.OpWrite, v, cl.writeOp(v)))
	}
	// Sequence numbers stay sane: an attacked write may consume at most two
	// (the certified read can re-certify the write's own abandoned
	// optimistic proposal, whose successor is then installed) — never the
	// forged near-MaxInt64 lead.
	if cl.writeTS.Seq <= 0 || cl.writeTS.Seq > 7 {
		t.Fatalf("writer timestamp after inflation attack = %v, want 0 < seq ≤ 7", cl.writeTS)
	}
	rd := s.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, cl.readOp(1))
	if v := mustRun(t, s, rd); v != "v4" {
		t.Fatalf("read after inflation attack = %q, want v4", v)
	}
}

func TestEncodeDecodePair(t *testing.T) {
	cases := []types.Pair{
		types.BottomPair,
		{TS: types.At(1), Val: "a"},
		{TS: types.At(42), Val: "hello|world"}, // payload containing the separator
		{TS: types.TS{Seq: 3, WID: 5}, Val: "multi-writer"},
		{TS: types.TS{Seq: 9, WID: 2}, Val: "a|b|c"},
		{TS: types.At(7), Val: ""},
	}
	for _, p := range cases {
		got, err := DecodePair(EncodePair(p))
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if p.TS == types.At(7) && p.Val == "" {
			// (7, "") encodes as "7|" and round-trips exactly.
			if got.TS != types.At(7) || got.Val != "" {
				t.Errorf("round trip %v → %v", p, got)
			}
			continue
		}
		if got != p {
			t.Errorf("round trip %v → %v", p, got)
		}
	}
	for _, bad := range []types.Value{"junk", "x|y", "-3|v", "0|v", "3.|v", "3.0|v", "3.x|v"} {
		if _, err := DecodePair(bad); err == nil {
			t.Errorf("DecodePair(%q) accepted", bad)
		}
	}
}

func TestNewReaderPanicsOnBadIndex(t *testing.T) {
	thr := th(t, 4, 1)
	defer func() {
		if recover() == nil {
			t.Error("bad index accepted")
		}
	}()
	NewReader(nil, thr, 3, 2)
}

func TestReaderLifetimeChurnDiscoversSeq(t *testing.T) {
	// The captured integration flake: a reader identity restarted with a
	// fresh handle used to restart its write-back sequence count at zero,
	// re-issuing timestamps an earlier lifetime already used with a
	// DIFFERENT value. Objects keep whichever write they saw first (equal
	// timestamps never overwrite), so correct objects end up durably
	// disagreeing on one timestamp — each such pair burns a unit of every
	// later read decision's fault budget, and enough of them starve reads
	// of the register outright (see regular.TestDecideDisjointConflictsStarve
	// for the decision-level mechanism). The fix: a read resumes its
	// sequence number from the views its own query rounds just collected.
	// Every write completes on {1,2,3} only and every read queries quorum
	// {1,2,4}, so the reads' w-support stays below S−t and the adaptive
	// write-back elision never fires — the scenario under test is precisely
	// the fallback path that still issues write-backs.
	thr := th(t, 4, 1)
	cl := newCluster(thr, 2)
	s := sim.New(sim.Config{Servers: 4})
	defer s.Close()

	wa := s.Spawn("w-a", types.Writer, checker.OpWrite, "a", cl.writeOp("a"))
	s.Step(wa, 1, 2, 3) // PREWRITE
	s.Step(wa, 1, 2, 3) // WRITE
	if !wa.Done() {
		t.Fatal("write a did not complete on {1,2,3}")
	}

	// Lifetime A of reader identity 1: a fresh handle (seq 0) whose
	// write-back reaches only objects {1,2,3} — object 4 never learns that
	// sequence number 1 of ReaderReg(1) carries enc(1,"a").
	freshRead := func(out **Reader) sim.OpFunc {
		return func(c *sim.Client) (types.Value, error) {
			r := NewReaderAt(c, cl.thr, 1, cl.readers, 0)
			*out = r
			v, err := r.Read()
			return v, err
		}
	}
	var rdA *Reader
	opA := s.Spawn("rd-lifeA", types.Reader(1), checker.OpRead, types.Bottom, freshRead(&rdA))
	s.Step(opA, 1, 2, 4) // AREAD1 (object 4 missed the write: no elision)
	s.Step(opA, 1, 2, 4) // AREAD2
	s.Step(opA, 1, 2, 3) // write-back PREWRITE
	s.Step(opA, 1, 2, 3) // write-back WRITE
	if !opA.Done() {
		t.Fatal("lifetime A read did not complete on a quorum")
	}
	if v, err := opA.Result(); err != nil || v != "a" {
		t.Fatalf("lifetime A read = %q, %v", v, err)
	}

	wb := s.Spawn("w-b", types.Writer, checker.OpWrite, "b", cl.writeOp("b"))
	s.Step(wb, 1, 2, 3) // PREWRITE
	s.Step(wb, 1, 2, 3) // WRITE
	if !wb.Done() {
		t.Fatal("write b did not complete on {1,2,3}")
	}

	// Lifetime B: the same identity restarts from zero again. Its read must
	// discover sequence number 1 from the query rounds and write back at 2
	// rather than re-issuing 1 with this era's value.
	var rdB *Reader
	opB := s.Spawn("rd-lifeB", types.Reader(1), checker.OpRead, types.Bottom, freshRead(&rdB))
	s.Step(opB, 1, 2, 4) // AREAD1
	s.Step(opB, 1, 2, 4) // AREAD2
	s.Step(opB, 1, 2, 3) // write-back PREWRITE
	s.Step(opB, 1, 2, 3) // write-back WRITE
	if !opB.Done() {
		t.Fatal("lifetime B read did not complete on a quorum")
	}
	if v, err := opB.Result(); err != nil || v != "b" {
		t.Fatalf("lifetime B read = %q, %v; want b", v, err)
	}
	if got := rdB.Seq(); got != 2 {
		t.Fatalf("lifetime B resumed write-back seq = %d, want 2 (discovered 1, wrote 2)", got)
	}

	// White-box invariant behind the whole incident: no two objects may
	// hold different values at the same timestamp of ReaderReg(1).
	for _, field := range []string{"pw", "w"} {
		byTS := make(map[types.TS]types.Value)
		for sid := 1; sid <= 4; sid++ {
			st := s.Store(sid).Reg(types.ReaderReg(1))
			pair := st.PW
			if field == "w" {
				pair = st.W
			}
			if pair.IsBottom() {
				continue
			}
			if prev, seen := byTS[pair.TS]; seen && prev != pair.Val {
				t.Fatalf("%s divergence at ts %v: %q vs %q", field, pair.TS, prev, pair.Val)
			}
			byTS[pair.TS] = pair.Val
		}
	}
}
