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

// onSchedule returns a mux over the simulator's link — framed, like sockets:
// a link that frames nothing is sent no have-list — and a way to run a client
// of it to completion.
func onSchedule(t *testing.T, s *sim.Sim) (*tcpnet.Mux, func(func())) {
	m := tcpnet.NewLinkMux(s.NumServers(), s.Link())
	t.Cleanup(m.Close)
	return m, func(f func()) {
		t.Helper()
		s.Go(f)
		if err := s.Run(nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSteadyStateReadsMoveTimestampsOnly drives real object automata: once a
// handle has decided a pair, every later reply to it is elided, the request
// bundle is reused, and the read's result is unchanged.
func TestSteadyStateReadsMoveTimestampsOnly(t *testing.T) {
	thr := th(t, 4, 1)
	s := sim.New(sim.Config{Servers: 4})
	defer s.Close()
	lc, run := onSchedule(t, s)
	r := NewReader(lc.Client(types.Reader(1), 0), thr, 1, 2)
	read := func(what string) {
		t.Helper()
		run(func() {
			if v, err := r.Read(); err != nil || v != "a" {
				t.Errorf("%s read = %q, %v", what, v, err)
			}
		})
	}
	run(func() {
		if err := NewWriter(lc.Client(types.Writer, 0), thr).Write("a"); err != nil {
			t.Error(err)
		}
	})
	read("first")
	// The read asks the shared register alone: a bare READ, its have-list the
	// pair the first read decided.
	request := func() *types.Have {
		req := r.mux.Spec("AREAD1").Req(1)
		if req.Kind != types.MsgRead1 || len(req.Have) != 1 {
			t.Fatalf("steady-state request = %v with have-list %v, want a bare READ offering one pair", req, req.Have)
		}
		return &req.Have[0]
	}
	have := request()
	inflated := mInflated.Value()
	read("second")
	// 1 round (a hit) × the S−t = 3 objects it hears before it is Done × (pw,
	// w) of the shared register: the one register there is.
	if d := mInflated.Value() - inflated; d != 6 {
		t.Errorf("steady-state read re-inflated %d values, want 6", d)
	}
	if r.OneRound != 2 { // a handle has nothing to discover: its first read hits too
		t.Errorf("a read of the settled register took the decision round (one-round reads: %d of 2)", r.OneRound)
	}
	if have != request() {
		t.Error("steady-state read rebuilt its request")
	}
	// Allocations are counted in process (the simulator's scheduler allocates
	// per message of its own): over the inline link as it is, which sends
	// reads in full form, and over one that says it frames its requests, so
	// reads go out with have-lists and come back elided, as over sockets. What
	// remains is the objects' reply bundles (1 round × 4 objects) and the
	// round's own reply channel and deadline timer; the client side of a
	// steady-state read — have-lists, re-inflation and hit test included —
	// allocates nothing.
	for _, framed := range []bool{false, true} {
		reg := new(tcpnet.Registry)
		var link tcpnet.Link = reg.Link(reg.Add(server.NewHosts(4)...))
		if framed {
			link = framedLink{link}
		}
		mem := tcpnet.NewLinkMux(4, link)
		defer mem.Close()
		if err := NewWriter(mem.Client(types.Writer, 0), thr).Write("a"); err != nil {
			t.Fatal(err)
		}
		r := NewReader(mem.Client(types.Reader(1), 0), thr, 1, 2)
		r.Read()
		inflated := mInflated.Value()
		if allocs := testing.AllocsPerRun(50, func() { r.Read() }); allocs > 9 {
			t.Errorf("steady-state read (framed link: %v) allocates %.0f times", framed, allocs)
		}
		if elided := mInflated.Value() != inflated; elided != framed {
			t.Errorf("steady-state read (framed link: %v) was answered elided: %v", framed, elided)
		}
	}
}

// framedLink is an inline link that says it frames its requests, so rounds
// over it take the forms they take over sockets — have-lists, conditioned
// writes — against the objects of this process.
type framedLink struct{ tcpnet.Link }

func (framedLink) Framed() bool { return true }

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
	s := sim.New(sim.Config{Servers: 4})
	defer s.Close()
	lc, run := onSchedule(t, s)
	w := NewWriter(lc.Client(types.Writer, 0), thr)
	modify := func(v types.Value) (saw types.Pair) {
		t.Helper()
		run(func() {
			if _, err := w.Modify(func(cur types.Pair) (types.Value, types.Delta, error) {
				saw = cur
				return v, types.Delta{}, nil
			}); err != nil {
				t.Error(err)
			}
		})
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
