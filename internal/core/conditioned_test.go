package core

import (
	"fmt"
	"testing"

	"robustatomic/internal/checker"
	"robustatomic/internal/obs"
	"robustatomic/internal/server"
	"robustatomic/internal/sim"
	"robustatomic/internal/types"
)

// Value-eliding writes, as counted at the objects and in the round engine.
var (
	mResentFull = obs.Default.Counter("core_write_resent_full_total")
	mPromoted   = obs.Default.Counter("server_write_promoted_total")
)

// TestWritesByReferenceOnTheFramedLink: over the simulator's (framed) link a
// settled register's WRITE phases travel as references — every correct
// object promotes the pair its PREWRITE stored, nobody asks for the value —
// and the write costs the rounds it always did.
func TestWritesByReferenceOnTheFramedLink(t *testing.T) {
	thr := th(t, 4, 1)
	cl := newCluster(thr, 2)
	s := sim.New(sim.Config{Servers: 4})
	defer s.Close()
	promoted, resent := mPromoted.Value(), mResentFull.Value()
	for i, v := range []types.Value{"a", "b", "c"} {
		op := s.Spawn(fmt.Sprint("w", i), types.Writer, checker.OpWrite, v, cl.writeOp(v))
		mustRun(t, s, op)
		if op.Rounds() != 2 {
			t.Errorf("write %q took %d rounds, want 2", v, op.Rounds())
		}
	}
	s.Drain() // the replies the rounds did not wait for
	if d := mPromoted.Value() - promoted; d != 3*4 {
		t.Errorf("%d WRITEs promoted a prewritten pair, want 12 (3 writes × 4 objects)", d)
	}
	if d := mResentFull.Value() - resent; d != 0 {
		t.Errorf("%d phases re-sent in full on a settled register", d)
	}
	if v := mustRun(t, s, s.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, cl.readOp(1))); v != "c" {
		t.Errorf("read = %q, want c", v)
	}
}

// TestAtomicDespiteFalseNeedAndFalseAck: t objects that answer every write
// `need value` (FalseNeed), or acknowledge references they never applied
// (FalseAck), cost an operation no round — a write stays at 2, a read at
// most 4, on the correct objects' replies alone — and a refusing object at
// most one re-send per round; the history stays atomic.
func TestAtomicDespiteFalseNeedAndFalseAck(t *testing.T) {
	liars := map[string]func() server.Behavior{
		"falseneed": func() server.Behavior { return server.FalseNeed{} },
		"falseack":  func() server.Behavior { return server.FalseAck{} },
	}
	for _, tt := range []int{1, 2} {
		S := 3*tt + 1
		thr := th(t, S, tt)
		for name, liar := range liars {
			t.Run(fmt.Sprintf("t=%d/%s", tt, name), func(t *testing.T) {
				cl := newCluster(thr, 2)
				h := &checker.History{}
				s := sim.New(sim.Config{Servers: S, History: h})
				defer s.Close()
				for i := 1; i <= tt; i++ {
					s.SetByzantine(i, liar())
				}
				resent := mResentFull.Value()
				writeRounds := 0
				for i, v := range []types.Value{"a", "b", "c", "d"} {
					w := s.Spawn(fmt.Sprint("w", i), types.Writer, checker.OpWrite, v, cl.writeOp(v))
					if i%2 == 0 {
						mustRun(t, s, w) // every reply delivered: the liars are heard
					} else {
						for !w.Done() { // the correct objects alone must do
							if err := s.CheckLiveness(w); err != nil {
								t.Fatalf("liveness: %v", err)
							}
						}
					}
					if w.Rounds() != 2 {
						t.Errorf("write %q took %d rounds, want 2", v, w.Rounds())
					}
					writeRounds += w.Rounds()
					for rd := 1; rd <= 2; rd++ {
						op := s.Spawn(fmt.Sprintf("r%d.%d", rd, i), types.Reader(rd), checker.OpRead, types.Bottom, cl.readOp(rd))
						if got := mustRun(t, s, op); got != v {
							t.Errorf("reader %d after write %q read %q", rd, v, got)
						}
						if op.Rounds() > 4 {
							t.Errorf("read took %d rounds", op.Rounds())
						}
					}
				}
				// Write-backs are writes too: bound the re-sends by every round
				// any operation ran, one per liar.
				if d, bound := mResentFull.Value()-resent, int64(tt*(writeRounds+2*2*4)); d > bound {
					t.Errorf("%d phases re-sent in full, more than one per liar and write round (%d)", d, bound)
				} else if name == "falseneed" && d == 0 {
					t.Error("a refusing object was never re-sent anything: the re-ask did not run")
				}
				if err := checker.CheckAtomicMW(h); err != nil {
					t.Error(err)
				}
			})
		}
	}
}
