package regular

import (
	"fmt"
	"math/rand"
	"testing"

	"robustatomic/internal/checker"
	"robustatomic/internal/quorum"
	"robustatomic/internal/server"
	"robustatomic/internal/sim"
	"robustatomic/internal/types"
)

func pair(ts int64, v string) types.Pair { return types.Pair{TS: types.At(ts), Val: types.Value(v)} }

func th(t *testing.T, s, tt int) quorum.Thresholds {
	t.Helper()
	out, err := quorum.NewThresholds(s, tt)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// writeOp returns an OpFunc performing WritePair on the writer register.
func writeOp(thr quorum.Thresholds, p types.Pair) sim.OpFunc {
	return func(c *sim.Client) (types.Value, error) {
		w := NewWriterAt(c, thr, types.WriterReg, 0, types.At(p.TS.Seq-1))
		if err := w.WritePair(p); err != nil {
			return types.Bottom, err
		}
		return types.Bottom, nil
	}
}

// readOp returns an OpFunc performing a full read.
func readOp(thr quorum.Thresholds) sim.OpFunc {
	return func(c *sim.Client) (types.Value, error) {
		return NewReader(c, thr, types.WriterReg).Read()
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

func TestReadInitialBottom(t *testing.T) {
	thr := th(t, 4, 1)
	s := sim.New(sim.Config{Servers: 4})
	defer s.Close()
	rd := s.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, readOp(thr))
	if v := mustRun(t, s, rd); !v.IsBottom() {
		t.Errorf("initial read = %q, want ⊥", v)
	}
	if rd.Rounds() != 1 {
		t.Errorf("read rounds = %d, want 1 (⊥ everywhere is a fast hit on ⊥)", rd.Rounds())
	}
}

func TestWriteThenRead(t *testing.T) {
	thr := th(t, 4, 1)
	s := sim.New(sim.Config{Servers: 4})
	defer s.Close()
	w := s.Spawn("w", types.Writer, checker.OpWrite, "a", writeOp(thr, pair(1, "a")))
	mustRun(t, s, w)
	if w.Rounds() != 2 {
		t.Errorf("write rounds = %d, want 2", w.Rounds())
	}
	rd := s.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, readOp(thr))
	if v := mustRun(t, s, rd); v != "a" {
		t.Errorf("read = %q, want a", v)
	}
}

func TestReadSeesLatestOfMany(t *testing.T) {
	thr := th(t, 7, 2)
	s := sim.New(sim.Config{Servers: 7})
	defer s.Close()
	for i := 1; i <= 5; i++ {
		w := s.Spawn(fmt.Sprintf("w%d", i), types.Writer, checker.OpWrite, types.Value(fmt.Sprintf("v%d", i)),
			writeOp(thr, pair(int64(i), fmt.Sprintf("v%d", i))))
		mustRun(t, s, w)
	}
	rd := s.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, readOp(thr))
	if v := mustRun(t, s, rd); v != "v5" {
		t.Errorf("read = %q, want v5", v)
	}
}

// byzBehaviors enumerates the Byzantine behaviors exercised against reads.
func byzBehaviors(s *sim.Sim, seed int64) map[string]func(sid int) server.Behavior {
	return map[string]func(int) server.Behavior{
		"silent":  func(int) server.Behavior { return server.Silent{} },
		"garbage": func(int) server.Behavior { return server.Garbage{} },
		"garbage-low": func(int) server.Behavior {
			return server.Garbage{Level: 1, Val: "low"}
		},
		"stale": func(sid int) server.Behavior {
			return &server.Stale{Snap: s.Snapshot(sid)}
		},
		"equivocate": func(sid int) server.Behavior {
			return server.Equivocate{Readers: &server.Stale{Snap: s.Snapshot(sid)}}
		},
		"replay": func(int) server.Behavior {
			return &server.ReplayOnly{Rand: rand.New(rand.NewSource(seed))}
		},
	}
}

func TestReadDespiteByzantine(t *testing.T) {
	// After a complete write, any t Byzantine objects with any behavior must
	// not prevent the read from returning the written value, and every read
	// round must stay live.
	for _, tt := range []int{1, 2, 3} {
		S := 3*tt + 1
		thr := th(t, S, tt)
		for name := range byzBehaviors(nil, 0) {
			t.Run(fmt.Sprintf("t=%d/%s", tt, name), func(t *testing.T) {
				s := sim.New(sim.Config{Servers: S})
				defer s.Close()
				mustRun(t, s, s.Spawn("w1", types.Writer, checker.OpWrite, "a", writeOp(thr, pair(1, "a"))))
				// Snapshot-based behaviors freeze the state holding "a";
				// then write "b" and make the read fight the adversary.
				behaviors := byzBehaviors(s, 42)
				mk := behaviors[name]
				byz := make([]server.Behavior, 0, tt)
				for i := 1; i <= tt; i++ {
					byz = append(byz, mk(i))
				}
				mustRun(t, s, s.Spawn("w2", types.Writer, checker.OpWrite, "b", writeOp(thr, pair(2, "b"))))
				for i := 1; i <= tt; i++ {
					s.SetByzantine(i, byz[i-1])
				}
				rd := s.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, readOp(thr))
				for !rd.Done() {
					if err := s.CheckLiveness(rd); err != nil {
						t.Fatalf("liveness: %v", err)
					}
				}
				v, err := rd.Result()
				if err != nil {
					t.Fatal(err)
				}
				if v != "b" {
					t.Errorf("read = %q, want b", v)
				}
			})
		}
	}
}

func TestReadConcurrentWithCrashedPreWrite(t *testing.T) {
	// Writer crashes mid-PREWRITE of ts=2 (reaching y < t+1 correct
	// objects); reads must return "a" (ts=1): ts=2 was never completable.
	thr := th(t, 4, 1)
	s := sim.New(sim.Config{Servers: 4})
	defer s.Close()
	mustRun(t, s, s.Spawn("w1", types.Writer, checker.OpWrite, "a", writeOp(thr, pair(1, "a"))))
	w2 := s.Spawn("w2", types.Writer, checker.OpWrite, "b", writeOp(thr, pair(2, "b")))
	s.Step(w2, 1) // PREWRITE reaches only object 1
	s.Crash(w2)
	rd := s.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, readOp(thr))
	if v := mustRun(t, s, rd); v != "a" {
		t.Errorf("read = %q, want a (ts=2 incomplete, not completable)", v)
	}
}

func TestReadConcurrentWithCrashedCompletePreWrite(t *testing.T) {
	// Writer completes PREWRITE(2) on a full quorum then crashes before any
	// WRITE: t+1 correct objects hold pw=(2,b) exactly, so (2,b) is
	// certified and a read may return it — the write is concurrent, so
	// regularity allows either. The first round's replies agree on
	// w=(1,a): the fast hit looks at w alone and decides on the last
	// COMPLETE write without a decision round.
	thr := th(t, 4, 1)
	s := sim.New(sim.Config{Servers: 4})
	defer s.Close()
	mustRun(t, s, s.Spawn("w1", types.Writer, checker.OpWrite, "a", writeOp(thr, pair(1, "a"))))
	w2 := s.Spawn("w2", types.Writer, checker.OpWrite, "b", writeOp(thr, pair(2, "b")))
	s.Step(w2, 1, 2, 3) // PREWRITE quorum; WRITE round starts
	s.Crash(w2)
	rd := s.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, readOp(thr))
	if v := mustRun(t, s, rd); v != "a" {
		t.Errorf("read = %q, want a (2t+1 objects agree on w)", v)
	}
	if rd.Rounds() != 1 {
		t.Errorf("read rounds = %d, want 1", rd.Rounds())
	}
}

func TestByzantineCannotFabricateValue(t *testing.T) {
	// t Byzantine objects agree on a fabricated pair; with only t exact
	// reporters it is never certified, and the fabricated level is not
	// completable, so reads return the genuine value.
	for _, tt := range []int{1, 2, 3} {
		S := 3*tt + 1
		thr := th(t, S, tt)
		s := sim.New(sim.Config{Servers: S})
		mustRun(t, s, s.Spawn("w1", types.Writer, checker.OpWrite, "a", writeOp(thr, pair(1, "a"))))
		for i := 1; i <= tt; i++ {
			s.SetByzantine(i, server.Garbage{Level: 99, Val: "evil"})
		}
		rd := s.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, readOp(thr))
		if v := mustRun(t, s, rd); v != "a" {
			t.Errorf("t=%d: read = %q, want a", tt, v)
		}
		s.Close()
	}
}

func TestStaleQuorumDoesNotFoolReader(t *testing.T) {
	// The adversarial schedule from the safety analysis: deliver only t
	// Byzantine (stale) + t slow correct replies first; the reader must
	// keep waiting, then decide correctly.
	tt := 2
	S := 3*tt + 1
	thr := th(t, S, tt)
	s := sim.New(sim.Config{Servers: S})
	defer s.Close()
	mustRun(t, s, s.Spawn("w1", types.Writer, checker.OpWrite, "a", writeOp(thr, pair(1, "a"))))
	snaps := make([][]byte, S+1)
	for i := 1; i <= S; i++ {
		snaps[i] = s.Snapshot(i)
	}
	// Write "b" on a quorum excluding objects 3, 4 (slow correct).
	w2 := s.Spawn("w2", types.Writer, checker.OpWrite, "b", writeOp(thr, pair(2, "b")))
	s.Step(w2, 1, 2, 5, 6, 7)
	s.Step(w2, 1, 2, 5, 6, 7)
	if !w2.Done() {
		t.Fatal("write(b) not complete")
	}
	// Objects 1, 2 turn Byzantine and pretend to still hold "a".
	s.SetByzantine(1, &server.Stale{Snap: snaps[1]})
	s.SetByzantine(2, &server.Stale{Snap: snaps[2]})
	rd := s.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, readOp(thr))
	// Round 1: deliver the misleading prefix first — byz 1,2 (stale "a") +
	// slow correct 3,4 (genuinely holding only "a") — then one fresh reply
	// to complete the quorum of 5.
	s.Step(rd, 1, 2, 3, 4)
	if _, seq, _ := rd.CurrentRound(); seq != 1 {
		t.Fatal("round 1 terminated below quorum")
	}
	s.Step(rd, 5)
	if _, seq, _ := rd.CurrentRound(); seq != 2 {
		t.Fatal("round 1 did not terminate at quorum")
	}
	// Round 2, same misleading order: with replies {1,2,3,4,5} the fault
	// assignment F={1,2} keeps level 2 possibly-complete (|F| + s5 + two
	// silent = 5) while (2,b) has a single reporter, so the reader must not
	// decide "a"; with {…,6} the pair (2,b) still has only 2 ≤ t reporters,
	// so it cannot be proven genuine either. No decision before s7.
	s.Step(rd, 1, 2, 3, 4, 5)
	if _, seq, _ := rd.CurrentRound(); seq != 2 {
		t.Fatal("reader decided on the misleading round-2 prefix")
	}
	s.Step(rd, 6)
	if _, seq, _ := rd.CurrentRound(); seq != 2 {
		t.Fatal("reader decided while (2,b) was unprovable")
	}
	// The last correct reply makes (2,b) genuine under every fault set.
	if v := mustRun(t, s, rd); v != "b" {
		t.Errorf("read = %q, want b", v)
	}
}

func TestWritePairValidation(t *testing.T) {
	thr := th(t, 4, 1)
	s := sim.New(sim.Config{Servers: 4})
	defer s.Close()
	op := s.Spawn("w", types.Writer, checker.OpWrite, "a", func(c *sim.Client) (types.Value, error) {
		w := NewWriterAt(c, thr, types.WriterReg, 0, types.At(5))
		if err := w.WritePair(pair(3, "old")); err == nil {
			return types.Bottom, fmt.Errorf("non-monotone WritePair accepted")
		}
		if err := w.Write("x"); err != nil {
			return types.Bottom, err
		}
		if w.LastTS() != types.At(6) {
			return types.Bottom, fmt.Errorf("LastTS = %v, want 6", w.LastTS())
		}
		if err := NewWriter(c, thr, types.WriterReg).Write(types.Bottom); err == nil {
			return types.Bottom, fmt.Errorf("⊥ write accepted")
		}
		return types.Bottom, nil
	})
	if err := s.RunOp(op); err != nil {
		t.Fatal(err)
	}
	if _, err := op.Result(); err != nil {
		t.Error(err)
	}
}

func TestNonDefaultRegisterIsolation(t *testing.T) {
	// Writes to a per-reader register instance must not disturb the
	// writer's register, and are readable back through the same instance.
	thr := th(t, 4, 1)
	s := sim.New(sim.Config{Servers: 4})
	defer s.Close()
	reg := types.ReaderReg(2)
	op := s.Spawn("wb", types.Reader(2), checker.OpWrite, "x", func(c *sim.Client) (types.Value, error) {
		return types.Bottom, NewWriterAt(c, thr, reg, 0, types.At(6)).WritePair(pair(7, "x"))
	})
	mustRun(t, s, op)
	rd := s.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, func(c *sim.Client) (types.Value, error) {
		p, err := NewReader(c, thr, reg).ReadPair()
		if err != nil {
			return types.Bottom, err
		}
		if p != pair(7, "x") {
			return types.Bottom, fmt.Errorf("reader reg pair = %v", p)
		}
		return NewReader(c, thr, types.WriterReg).Read()
	})
	if v := mustRun(t, s, rd); !v.IsBottom() {
		t.Errorf("writer register polluted: %q", v)
	}
}

// TestRandomizedSequentialWritesConcurrentReads model-checks regularity
// under seeded random schedules: sequential writes (single-writer
// discipline), concurrent reads, random Byzantine subsets and behaviors.
func TestRandomizedSequentialWritesConcurrentReads(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 15
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		tt := 1 + rng.Intn(2)
		S := 3*tt + 1
		thr := th(t, S, tt)
		h := &checker.History{}
		s := sim.New(sim.Config{Servers: S, History: h})
		nByz := rng.Intn(tt + 1)
		perm := rng.Perm(S)
		for i := 0; i < nByz; i++ {
			sid := perm[i] + 1
			switch rng.Intn(3) {
			case 0:
				s.SetByzantine(sid, server.Silent{})
			case 1:
				s.SetByzantine(sid, server.Garbage{Level: int64(rng.Intn(10)), Val: "evil"})
			case 2:
				s.SetByzantine(sid, &server.ReplayOnly{Rand: rng})
			}
		}
		readers := []*sim.Op{
			s.Spawn("r1", types.Reader(1), checker.OpRead, types.Bottom, readOp(thr)),
			s.Spawn("r2", types.Reader(2), checker.OpRead, types.Bottom, readOp(thr)),
		}
		// Interleave: writes run to completion one at a time, with random
		// reader progress in between.
		for i := 1; i <= 3; i++ {
			p := pair(int64(i), fmt.Sprintf("v%d", i))
			w := s.Spawn(fmt.Sprintf("w%d", i), types.Writer, checker.OpWrite, p.Val,
				func(c *sim.Client) (types.Value, error) {
					return types.Bottom, NewWriterAt(c, thr, types.WriterReg, 0, types.At(p.TS.Seq-1)).WritePair(p)
				})
			if err := s.RunConcurrent(seed+int64(i), w, readers[0], readers[1]); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		for _, rd := range readers {
			if !rd.Done() {
				if err := s.RunOp(rd); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		}
		if err := checker.CheckRegular(h); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s.Close()
	}
}
