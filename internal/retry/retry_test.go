package retry

import (
	"fmt"
	"strings"
	"testing"

	"robustatomic/internal/checker"
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

type harness struct {
	thr quorum.Thresholds
	ts  types.TS
	// lastRounds records the query-round count of the last read.
	lastRounds int
}

func (h *harness) writeOp(v types.Value) sim.OpFunc {
	return func(c *sim.Client) (types.Value, error) {
		w := NewWriterAt(c, h.thr, h.ts)
		if err := w.Write(v); err != nil {
			return types.Bottom, err
		}
		h.ts = w.LastTS()
		return types.Bottom, nil
	}
}

func (h *harness) readOp() sim.OpFunc {
	return func(c *sim.Client) (types.Value, error) {
		r := NewReader(c, h.thr)
		v, err := r.Read()
		h.lastRounds = r.Rounds
		return v, err
	}
}

func TestQuietReadsAreTwoRounds(t *testing.T) {
	h := &harness{thr: th(t, 4, 1)}
	s := sim.New(sim.Config{Servers: 4})
	defer s.Close()
	mustRun(t, s, s.Spawn("w", types.Writer, checker.OpWrite, "a", h.writeOp("a")))
	rd := s.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, h.readOp())
	if v := mustRun(t, s, rd); v != "a" {
		t.Errorf("read = %q", v)
	}
	if rd.Rounds() != 2 { // 1 unanimous query + 1 write-back
		t.Errorf("quiet read rounds = %d, want 2", rd.Rounds())
	}
}

func TestInitialBottomRead(t *testing.T) {
	h := &harness{thr: th(t, 4, 1)}
	s := sim.New(sim.Config{Servers: 4})
	defer s.Close()
	rd := s.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, h.readOp())
	if v := mustRun(t, s, rd); !v.IsBottom() {
		t.Errorf("read = %q", v)
	}
}

func TestStaleByzantineForcesRetries(t *testing.T) {
	// A stale Byzantine object plus a slow correct object deny unanimity in
	// the first query round when their replies land first; the read needs
	// extra rounds — the Ω(t)-ish degradation of experiment E6. Once the slow
	// object has caught up, how many depends on who answers: a round
	// integrates nothing past the reply that completes it, so under RunOp's
	// object-order schedule the stale object 1 is in every quorum and the
	// read never converges; hearing the three correct objects, it does.
	for _, correctFirst := range []bool{false, true} {
		h := &harness{thr: th(t, 4, 1)}
		s := sim.New(sim.Config{Servers: 4})
		mustRun(t, s, s.Spawn("w1", types.Writer, checker.OpWrite, "a", h.writeOp("a")))
		snap := s.Snapshot(1)
		// Write "b" on a quorum excluding object 2 (slow, still "a").
		w2 := s.Spawn("w2", types.Writer, checker.OpWrite, "b", h.writeOp("b"))
		s.Step(w2, 1, 3, 4)
		s.Step(w2, 1, 3, 4)
		if !w2.Done() {
			t.Fatal("write b incomplete")
		}
		s.SetByzantine(1, &server.Stale{Snap: snap})
		rd := s.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, h.readOp())
		// Round 1 query: deliver the split view (1:"a"-stale, 2:"a"-slow,
		// 3,4:"b") — no pair reaches 2t+1=3 matches, so the read must retry.
		s.Step(rd, 1, 2, 3, 4)
		if _, seq, _ := rd.CurrentRound(); seq != 2 {
			t.Fatalf("expected retry round, at seq %d", seq)
		}
		// Now object 2 catches up: the completed write's queued PREWRITE/WRITE
		// messages finally arrive, and a retry round can see unanimity.
		s.DeliverRequests(w2, 2)
		if correctFirst {
			s.Step(rd, 2, 3, 4)
			if v := mustRun(t, s, rd); v != "b" {
				t.Errorf("read = %q, want b", v)
			}
			if h.lastRounds < 2 {
				t.Errorf("read query rounds = %d, want ≥ 2", h.lastRounds)
			}
		} else if err := s.RunOp(rd); err != nil {
			t.Fatal(err)
		} else if v, err := rd.Result(); err == nil || h.lastRounds != MaxReadRounds {
			t.Errorf("stale object in every quorum: read = %q, %v after %d query rounds; want it to give up after %d", v, err, h.lastRounds, MaxReadRounds)
		}
		s.Close()
	}
}

func TestReadsSafeDespiteGarbage(t *testing.T) {
	// A round integrates nothing past the reply that completes it. Heard in
	// every quorum (RunOp's object order: 1..5), the two liars deny every
	// round unanimity and the read gives up rather than believe them; once it
	// hears the five correct objects, it converges. Atomic either way.
	for _, correctFirst := range []bool{false, true} {
		h := &harness{thr: th(t, 7, 2)}
		hist := &checker.History{}
		s := sim.New(sim.Config{Servers: 7, History: hist})
		mustRun(t, s, s.Spawn("w1", types.Writer, checker.OpWrite, "a", h.writeOp("a")))
		s.SetByzantine(1, server.Garbage{Level: 50, Val: "evil"})
		s.SetByzantine(2, server.Garbage{Level: 50, Val: "evil"})
		rd := s.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, h.readOp())
		if correctFirst {
			s.Step(rd, 1, 2, 3, 4, 5)
			s.Step(rd, 3, 4, 5, 6, 7)
			if v := mustRun(t, s, rd); v != "a" {
				t.Errorf("read = %q, want a", v)
			}
		} else if err := s.RunOp(rd); err != nil {
			t.Fatal(err)
		} else if v, err := rd.Result(); err == nil {
			t.Errorf("liars in every quorum: read = %q, want it to give up", v)
		}
		if err := checker.CheckAtomic(hist); err != nil {
			t.Error(err)
		}
		s.Close()
	}
}

func TestUnboundedUnderPerpetualStaleness(t *testing.T) {
	// With t objects frozen in the past and one correct object slow, the
	// adversary can deny unanimity forever: the read gives up after
	// MaxReadRounds — the unbounded worst case the paper cites.
	h := &harness{thr: th(t, 4, 1)}
	s := sim.New(sim.Config{Servers: 4})
	defer s.Close()
	mustRun(t, s, s.Spawn("w1", types.Writer, checker.OpWrite, "a", h.writeOp("a")))
	snap := s.Snapshot(1)
	w2 := s.Spawn("w2", types.Writer, checker.OpWrite, "b", h.writeOp("b"))
	s.Step(w2, 1, 3, 4)
	s.Step(w2, 1, 3, 4)
	s.SetByzantine(1, &server.Stale{Snap: snap})
	// Object 2 never receives the write: its state remains "a"; the stale
	// Byzantine object also answers "a"; 3 and 4 answer "b". 2-2 split
	// forever.
	rd := s.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, func(c *sim.Client) (types.Value, error) {
		r := NewReader(c, h.thr)
		_, err := r.Read()
		return types.Bottom, err
	})
	var opErr error
	for !rd.Done() {
		// Deliver only the split view each round; object 2's pending write
		// is withheld by never letting the writer's round 2 reach it.
		s.Step(rd, 1, 2, 3, 4)
	}
	_, opErr = rd.Result()
	if opErr == nil || !strings.Contains(opErr.Error(), "did not converge") {
		t.Fatalf("expected non-convergence, got %v", opErr)
	}
}

func TestRandomizedAtomicityQuietReaders(t *testing.T) {
	// Reads separated from writes (no contention) must be atomic and fast.
	for seed := int64(0); seed < 30; seed++ {
		h := &harness{thr: th(t, 4, 1)}
		hist := &checker.History{}
		s := sim.New(sim.Config{Servers: 4, History: hist})
		for i := 1; i <= 3; i++ {
			v := types.Value(fmt.Sprintf("v%d", i))
			mustRun(t, s, s.Spawn(fmt.Sprintf("w%d", i), types.Writer, checker.OpWrite, v, h.writeOp(v)))
			rd := s.Spawn(fmt.Sprintf("r%d", i), types.Reader(1), checker.OpRead, types.Bottom, h.readOp())
			if got := mustRun(t, s, rd); got != v {
				t.Fatalf("seed %d: read %q want %q", seed, got, v)
			}
		}
		if err := checker.CheckAtomic(hist); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
}
