package core

import (
	"fmt"
	"testing"

	"robustatomic/internal/checker"
	"robustatomic/internal/obs"
	"robustatomic/internal/server"
	"robustatomic/internal/sim"
	"robustatomic/internal/tcpnet"
	"robustatomic/internal/types"
)

// The client-side elision counters (proto/known.go).
var (
	mInflated      = obs.Default.Counter("core_read_inflated_total")
	mInflateReject = obs.Default.Counter("core_read_inflate_reject_total")
)

// TestSteadyStateReadsMoveTimestampsOnly drives real object automata: once a
// handle has decided a pair, every later reply to it is elided, the request
// bundle is reused, and the read's result is unchanged.
func TestSteadyStateReadsMoveTimestampsOnly(t *testing.T) {
	thr := th(t, 4, 1)
	lc := tcpnet.NewMemMux(server.NewHosts(4))
	defer lc.Close()
	if err := NewWriter(lc.Client(types.Writer, 0), thr).Write("a"); err != nil {
		t.Fatal(err)
	}
	r := NewReader(lc.Client(types.Reader(1), 0), thr, 1, 2)
	if v, err := r.Read(); err != nil || v != "a" {
		t.Fatalf("first read = %q, %v", v, err)
	}
	request := func() *types.SubMsg { return &r.mux.Spec("AREAD1", nil).Req(1).Sub[0] }
	bundle := request()
	inflated := mInflated.Value()
	if v, err := r.Read(); err != nil || v != "a" {
		t.Fatalf("second read = %q, %v", v, err)
	}
	// 1 round (every register hits) × the S−t = 3 objects it hears before it
	// is Done × (pw, w) of the shared register; the write-back registers are
	// empty, so there is nothing else to elide.
	if d := mInflated.Value() - inflated; d != 6 {
		t.Errorf("steady-state read re-inflated %d values, want 6", d)
	}
	if r.OneRound != 1 {
		t.Errorf("steady-state read took the decision round (one-round reads: %d)", r.OneRound)
	}
	if bundle != request() {
		t.Error("steady-state read rebuilt its request bundle")
	}
	if allocs := testing.AllocsPerRun(50, func() { r.Read() }); allocs > 9 {
		// What remains is the objects' reply bundles (1 round × 4 objects) and
		// the round's own reply channel and deadline timer; the client side of
		// a hinted read — hit test included — allocates nothing.
		t.Errorf("steady-state read allocates %.0f times", allocs)
	}
}

// TestAtomicDespiteFalseElide: a Byzantine object answering with elision
// claims the request never justified — alone, or only toward readers — costs
// the reads nothing but its own replies: they terminate, stay atomic, and
// the dropped claims are counted.
func TestAtomicDespiteFalseElide(t *testing.T) {
	for _, tt := range []int{1, 2} {
		S := 3*tt + 1
		thr := th(t, S, tt)
		for _, name := range []string{"falseelide", "equivocate"} {
			t.Run(fmt.Sprintf("t=%d/%s", tt, name), func(t *testing.T) {
				cl := newCluster(thr, 2)
				h := &checker.History{}
				s := sim.New(sim.Config{Servers: S, History: h})
				defer s.Close()
				mustRun(t, s, s.Spawn("w1", types.Writer, checker.OpWrite, "a", cl.writeOp("a")))
				for i := 1; i <= tt; i++ {
					if name == "equivocate" {
						s.SetByzantine(i, server.Equivocate{Readers: &server.FalseElide{}})
					} else {
						s.SetByzantine(i, &server.FalseElide{})
					}
				}
				rejects := mInflateReject.Value()
				// correctOnly drives op on the correct objects' replies alone:
				// it must terminate without the liars' help.
				correctOnly := func(op *sim.Op) types.Value {
					t.Helper()
					for !op.Done() {
						if err := s.CheckLiveness(op); err != nil {
							t.Fatalf("liveness: %v", err)
						}
					}
					v, _ := op.Result()
					return v
				}
				for i, want := range []types.Value{"a", "b", "c", "d"} {
					if i > 0 {
						mustRun(t, s, s.Spawn(fmt.Sprint("w", i+1), types.Writer, checker.OpWrite, want, cl.writeOp(want)))
					}
					for rd := 1; rd <= 2; rd++ {
						// First with every object's replies delivered (the
						// false claims reach the reader), then without.
						op := s.Spawn(fmt.Sprintf("r%d.%d.all", rd, i), types.Reader(rd), checker.OpRead, types.Bottom, cl.readOp(rd))
						if v := mustRun(t, s, op); v != want {
							t.Errorf("reader %d after write %q read %q", rd, want, v)
						}
						op = s.Spawn(fmt.Sprintf("r%d.%d.correct", rd, i), types.Reader(rd), checker.OpRead, types.Bottom, cl.readOp(rd))
						if v := correctOnly(op); v != want {
							t.Errorf("reader %d after write %q read %q", rd, want, v)
						}
					}
				}
				if err := checker.CheckAtomicMW(h); err != nil {
					t.Error(err)
				}
				if mInflateReject.Value() == rejects {
					t.Error("no false elision claim was counted")
				}
			})
		}
	}
}

// TestCertifiedReadOffersWritersPair: the certified read-modify-write of a
// writer whose last pair is still current is answered with timestamps — the
// rebase that finds nothing to rebase onto moves no value.
func TestCertifiedReadOffersWritersPair(t *testing.T) {
	thr := th(t, 4, 1)
	lc := tcpnet.NewMemMux(server.NewHosts(4))
	defer lc.Close()
	w := NewWriter(lc.Client(types.Writer, 0), thr)
	modify := func(v types.Value) types.Pair {
		t.Helper()
		var saw types.Pair
		if _, err := w.Modify(func(cur types.Pair) (types.Value, types.Delta, error) {
			saw = cur
			return v, types.Delta{}, nil
		}); err != nil {
			t.Fatal(err)
		}
		return saw
	}
	if saw := modify("a"); saw != types.BottomPair {
		t.Fatalf("first modify saw %v", saw)
	}
	inflated := mInflated.Value()
	if saw := modify("b"); saw.Val != "a" {
		t.Fatalf("second modify saw %v, want a", saw)
	}
	if d := mInflated.Value() - inflated; d != 6 { // 1 round (fast hit) × the 3 objects heard × (pw, w)
		t.Errorf("certified read of the writer's own pair re-inflated %d values, want 6", d)
	}
}
