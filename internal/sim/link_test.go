package sim

// The scheduled link under a Mux: what tcpnet's link tests hold of sockets
// and the in-memory link, held here of the simulator's — with the asynchrony
// (message latencies, netem delay, a withheld reply) that only a link with a
// clock of its own can give them.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"robustatomic/internal/checker"
	"robustatomic/internal/core"
	"robustatomic/internal/proto"
	"robustatomic/internal/regular"
	"robustatomic/internal/server"
	"robustatomic/internal/tcpnet"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

// scheduled returns a simulation of n objects, seeded, with message latencies
// up to 300µs, and one client process's Mux on it.
func scheduled(t *testing.T, n int, seed int64) (*Sim, *tcpnet.Mux) {
	s := New(Config{Servers: n})
	t.Cleanup(s.Close)
	s.Seed(seed)
	s.SetLatency(0, 300*time.Microsecond)
	return s, tcpnet.NewLinkMux(n, s.Link())
}

// run runs the clients on s to completion.
func run(t *testing.T, s *Sim, clients ...func()) {
	t.Helper()
	for _, f := range clients {
		s.Go(f)
	}
	if err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
}

// TestScheduledAtomicConcurrentClients: one writer and three readers hammer
// the atomic register over the scheduled link with t Byzantine objects, under
// 20 seeded schedules; every history must satisfy atomicity.
func TestScheduledAtomicConcurrentClients(t *testing.T) {
	for _, tt := range []int{1, 2} {
		for seed := int64(1); seed <= 20; seed++ {
			thr := thresholds(t, 3*tt+1, tt)
			s, m := scheduled(t, thr.S, seed)
			s.Hosts()[0].SetBehavior(server.Garbage{Level: 999, Val: "evil"})
			if tt > 1 {
				s.Hosts()[1].SetBehavior(&server.ReplayOnly{Rand: rand.New(rand.NewSource(7))})
			}
			h := &checker.History{}
			const writes, readers = 6, 3
			clients := []func(){func() {
				w := core.NewWriter(m.Client(types.Writer, 0), thr)
				for i := 1; i <= writes; i++ {
					v := types.Value(fmt.Sprintf("v%d", i))
					id := h.Invoke(types.Writer, checker.OpWrite, v)
					if err := w.Write(v); err != nil {
						t.Errorf("write: %v", err)
						return
					}
					h.Respond(id, types.Bottom)
				}
			}}
			for r := 1; r <= readers; r++ {
				clients = append(clients, func() {
					rd := core.NewReader(m.Client(types.Reader(r), 0), thr, r, readers)
					for i := 0; i < 4; i++ {
						id := h.Invoke(types.Reader(r), checker.OpRead, types.Bottom)
						v, err := rd.Read()
						if err != nil {
							t.Errorf("read: %v", err)
							return
						}
						h.Respond(id, v)
					}
				})
			}
			run(t, s, clients...)
			if err := checker.CheckAtomic(h); err != nil {
				t.Fatalf("t=%d seed %d: %v", tt, seed, err)
			}
		}
	}
}

// TestScheduledBeyondBudget: on a link where a reply may always still arrive,
// a round more than t objects will not answer burns its deadline — of virtual
// time: the clock jumps there when nothing else can happen.
func TestScheduledBeyondBudget(t *testing.T) {
	thr := thresholds(t, 4, 1)
	s, m := scheduled(t, 4, 5)
	s.Hosts()[1].SetPartitioned(true)
	s.Hosts()[2].SetBehavior(server.Silent{})
	cl := m.Client(types.Writer, 0)
	cl.RoundTimeout = time.Minute
	w := regular.NewWriter(cl, thr, types.WriterReg)
	var err error
	start := time.Now()
	run(t, s, func() { err = w.Write("v1") })
	if !errors.Is(err, tcpnet.ErrRoundTimeout) {
		t.Fatalf("write with 2 > t objects not answering: err = %v, want a round timeout", err)
	}
	if s.Now() < time.Minute || time.Since(start) > 5*time.Second {
		t.Fatalf("the round failed at virtual %v after %v of real time; want the one-minute deadline, at once", s.Now(), time.Since(start))
	}
	s.Hosts()[1].SetPartitioned(false)
	s.Hosts()[2].SetBehavior(nil)
	if run(t, s, func() { err = w.Write("v2") }); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
}

// TestScheduledCloseInterruptsRounds: a round waiting on withheld replies
// observes its mux's Close.
func TestScheduledCloseInterruptsRounds(t *testing.T) {
	thr := thresholds(t, 4, 1)
	s, m := scheduled(t, 4, 7)
	s.Hold(func(msg Message) bool { return msg.Reply })
	cl := m.Client(types.Writer, 0)
	cl.RoundTimeout = time.Hour
	w := regular.NewWriter(cl, thr, types.WriterReg)
	var err error
	run(t, s, func() { err = w.Write("a") }, func() {
		s.Sleep(time.Minute)
		m.Close()
	})
	if err == nil || s.Now() != time.Minute {
		t.Errorf("err %v at %v; want the round interrupted by the Close a minute in", err, s.Now())
	}
	if run(t, s, func() { err = w.Write("b") }); err == nil {
		t.Error("a round ran on a closed mux")
	}
}

// holders counts the objects whose instance reg holds w = want.
func holders(hosts []*server.Host, reg int, want types.Pair) int {
	n := 0
	for _, h := range hosts {
		rsp, ok, _, _ := h.Serve(wire.Request{Reg: reg, Msg: types.Message{Kind: types.MsgRead1}})
		if ok && rsp.Msg.W == want {
			n++
		}
	}
	return n
}

// TestScheduledBatchedViaCombiner runs concurrent per-register two-phase
// writers through a Combiner over one client of the scheduled link, alone and
// with an object that drops individual sub-replies out of every batch: the
// followers park in Await, the merged batches produce the per-register end
// state independent rounds would, and instances no batch addressed stay
// untouched.
func TestScheduledBatchedViaCombiner(t *testing.T) {
	for _, flaky := range []bool{false, true} {
		s, m := scheduled(t, 4, 14)
		need := 4
		if flaky {
			s.Hosts()[0].SetBehavior(server.Flaky{Rand: rand.New(rand.NewSource(99)), DropProb: 0.7})
			need = 3
		}
		comb := proto.NewCombiner(m.Client(types.Writer, 0))
		comb.SetWait(s.Await)
		pair := func(reg int) types.Pair {
			return types.Pair{TS: types.At(int64(100 + reg)), Val: types.Value(fmt.Sprintf("comb-%d", reg))}
		}
		var clients []func()
		for _, reg := range []int{1, 3, 4, 5, 6, 7} {
			clients = append(clients, func() {
				for _, kind := range []types.MsgKind{types.MsgPreWrite, types.MsgWriteBack} {
					spec := proto.RoundSpec{
						Label: kind.String(),
						Req:   func(int) types.Message { return types.Message{Kind: kind, Pair: pair(reg)} },
						Acc:   proto.NewAckBits(need),
					}
					if err := comb.Rounder(reg).Round(spec); err != nil {
						t.Errorf("reg %d %v: %v", reg, kind, err)
						return
					}
				}
			})
		}
		run(t, s, clients...)
		s.Drain() // nothing still in flight while the objects are inspected
		s.Hosts()[0].SetBehavior(nil)
		for _, reg := range []int{1, 3, 4, 5, 6, 7} {
			if n := holders(s.Hosts(), reg, pair(reg)); n < need {
				t.Errorf("flaky=%v: instance %d: %d objects hold %v, want ≥ %d", flaky, reg, n, pair(reg), need)
			}
		}
		if n := holders(s.Hosts(), 2, types.Pair{}); n != 4 {
			t.Errorf("flaky=%v: instance 2, never addressed, is blank on %d of 4 objects", flaky, n)
		}
	}
}

// TestScheduledPartitionAndNetem: a partitioned object drops requests before
// the automaton — its state must not advance — while the S−t live quorum
// keeps serving, and healing folds it straight back; seeded link faults —
// dropped requests, doubled replies, and wire DELAY, which this link applies:
// a reply is deliverable only once its object's netem delay has passed on
// the virtual clock — stay within the fault budget and never corrupt results.
func TestScheduledPartitionAndNetem(t *testing.T) {
	thr := thresholds(t, 4, 1)
	s, m := scheduled(t, 4, 11)
	w := core.NewWriter(m.Client(types.Writer, 0), thr)
	rd := core.NewReader(m.Client(types.Reader(1), 0), thr, 1, 2)
	s.Hosts()[0].SetPartitioned(true)
	run(t, s, func() {
		if err := w.Write("v0"); err != nil {
			t.Errorf("write with one partitioned object: %v", err)
		}
	})
	if n := s.Hosts()[0].Registers(); n != 0 {
		t.Fatalf("partitioned object instantiated %d registers — it processed dropped requests", n)
	}
	s.Hosts()[0].SetPartitioned(false)
	s.Hosts()[1].SetNetem(rand.New(rand.NewSource(3)), 0.5, 0, 0)
	s.Hosts()[2].SetNetem(rand.New(rand.NewSource(4)), 0, 1.0, time.Millisecond)
	run(t, s, func() {
		for i := 1; i <= 8; i++ {
			val := types.Value(fmt.Sprintf("v%d", i))
			if err := w.Write(val); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			if v, err := rd.Read(); err != nil || v != val {
				t.Errorf("read %d = %q, %v; want %q", i, v, err, val)
				return
			}
		}
	})
	if s.Hosts()[0].Registers() == 0 {
		t.Error("healed object still not processing requests")
	}

	// The delay alone: objects 1..3 answer a round of S−t, object 3 a
	// millisecond late, on a link with no latency of its own.
	s, m = scheduled(t, 4, 12)
	s.SetLatency(0, 0)
	s.Hosts()[3].SetPartitioned(true)
	s.Hosts()[2].SetNetem(nil, 0, 0, time.Millisecond)
	run(t, s, func() {
		if err := m.Client(types.Writer, 0).Round(proto.RoundSpec{
			Label: "PING",
			Req:   func(int) types.Message { return types.Message{Kind: types.MsgRead1} },
			Acc:   proto.NewCountAcc(3, nil),
		}); err != nil {
			t.Error(err)
		}
	})
	if s.Now() != time.Millisecond {
		t.Errorf("a round that needed a reply delayed by 1ms completed at virtual %v", s.Now())
	}
}

// TestHedgeDelayOnTheLinksClock: the hedge delay of a deferring round is four
// smoothed latencies of such rounds, measured on the LINK's clock — on the
// simulator's, a function of the schedule alone: a reader with one deferred
// suspect and reply latencies of exactly 300 µs ends 20 rounds with the
// closed-form EWMA, and its next round hedges at the same virtual instant in
// two runs. (Measured on the wall clock, it depended on how long the host
// took to run the rounds before.)
func TestHedgeDelayOnTheLinksClock(t *testing.T) {
	const S, liar, rtt, rounds = 4, 2, 300 * time.Microsecond, 20
	hedge := func() time.Duration {
		s := New(Config{Servers: S})
		defer s.Close()
		s.SetLatency(rtt/2, rtt/2)
		for _, h := range s.Hosts() {
			h.Serve(wire.Request{From: types.Writer, Msg: types.Message{Kind: types.MsgWrite, Pair: pair(1, "a")}})
		}
		s.SetByzantine(liar, server.Garbage{Level: 7, Val: "evil"})
		op, _, _ := reads(s, S-1)
		for i := 0; len(op.mux.Suspects()) == 0; i++ {
			if i == 20 {
				t.Fatal("20 contradicted reads and nobody is suspected")
			}
			s.Step(op, 1, 2, 3, 4) // the liar is heard within the quorum
		}
		for i := 0; i < rounds; i++ { // each completes on the three correct replies, one rtt after it began
			s.Step(op, 1, 3, 4)
		}
		begun := s.Now()
		s.Step(op, 1, 3) // object 4 is correct, and slow
		s.FireTimer(op)
		if len(op.port.lanes[liar-1].q[0]) != 1 {
			t.Fatal("the hedge delay did not release the suspect's request")
		}
		return s.Now() - begun
	}
	srtt := int64(0)
	for i := 0; i < rounds; i++ {
		srtt += (int64(rtt) - srtt) / 8
	}
	want := 4 * time.Duration(srtt) // above the 1 ms floor after 20 rounds
	if a, b := hedge(), hedge(); a != want || b != want {
		t.Errorf("hedge fired %v and %v after the round began, want 4 × srtt = %v both times", a, b, want)
	}
}
