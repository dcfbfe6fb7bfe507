package sim

// Protocol points only the shared engine makes scriptable: the simulator's
// objects are server.Hosts and its rounds are tcpnet.Rounds, so a batch, a
// deferred suspect, a hedge, a wrong-epoch refusal, a dropped ack and a
// restart from disk are each one directive away — no sleeps, no sockets.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"robustatomic/internal/checker"
	"robustatomic/internal/config"
	"robustatomic/internal/core"
	"robustatomic/internal/proto"
	"robustatomic/internal/quorum"
	"robustatomic/internal/server"
	"robustatomic/internal/tcpnet"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

func thresholds(t *testing.T, s, tt int) quorum.Thresholds {
	t.Helper()
	th, err := quorum.NewThresholds(s, tt)
	if err != nil {
		t.Fatal(err)
	}
	return th
}

// drive completes op on the correct objects' replies alone, checking
// wait-freedom at every round.
func drive(t *testing.T, s *Sim, op *Op) types.Value {
	t.Helper()
	for !op.Done() {
		if err := s.CheckLiveness(op); err != nil {
			t.Fatal(err)
		}
	}
	v, err := op.Result()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// stateAcc is a toy read accumulator: it waits for need STATE replies and
// keeps each object's written pair.
type stateAcc struct {
	need int
	w    map[int]types.Pair
}

func (a *stateAcc) Add(sid int, m types.Message) {
	if m.Kind == types.MsgState {
		a.w[sid] = m.W
	}
}
func (a *stateAcc) Done() bool { return len(a.w) >= a.need }

// Verdict judges the objects against the pair most of them reported — what
// regular.ReadAcc does with the read's decision.
func (a *stateAcc) Verdict() (v proto.Verdict) {
	votes := map[types.Pair]int{}
	var most types.Pair
	for _, p := range a.w {
		if votes[p]++; votes[p] > votes[most] {
			most = p
		}
	}
	for sid, p := range a.w {
		if p == most {
			v.Agree |= 1 << uint(sid)
		} else {
			v.W |= 1 << uint(sid)
		}
	}
	return v
}

func readSpec(label string, acc proto.Accumulator) proto.RoundSpec {
	return proto.RoundSpec{Label: label, Req: func(int) types.Message { return types.Message{Kind: types.MsgRead1} }, Acc: acc}
}

// TestScriptedBatchedRound: two registers' rounds merged by a proto.Combiner
// over a sim.Client travel as ONE Subs request per object through
// Host.Serve, and an object that shuffles its batched reply is still routed
// by register instance. The two rounds park in Group.Do behind a leader the
// script holds open: they share a batch on the first attempt, every time.
func TestScriptedBatchedRound(t *testing.T) {
	const S = 4
	pairs := map[int]types.Pair{1: pair(1, "one"), 2: pair(2, "two")}
	s := New(Config{Servers: S})
	defer s.Close()
	for reg, p := range pairs { // seed the two register instances
		for _, h := range s.Hosts() {
			h.Serve(wire.Request{From: types.Writer, Reg: reg, Msg: types.Message{Kind: types.MsgWrite, Pair: p}})
		}
	}
	s.Hosts()[0].SetBatchChaos(rand.New(rand.NewSource(1)), 0, true)
	accs := []*stateAcc{{need: 1, w: map[int]types.Pair{}}, {need: S, w: map[int]types.Pair{}}, {need: S, w: map[int]types.Pair{}}}
	op := s.Spawn("batch", types.Reader(1), checker.OpRead, types.Bottom, func(c *Client) (types.Value, error) {
		comb := proto.NewCombiner(c)
		comb.SetWait(s.Await)
		errs, left := make([]error, len(accs)), len(accs)
		for reg := range accs { // register 0 first: its round leads alone
			s.Go(func() {
				errs[reg] = comb.Rounder(reg).Round(readSpec(fmt.Sprint("READ", reg), accs[reg]))
				left--
			})
		}
		s.Until(func() bool { return left == 0 })
		return types.Bottom, errors.Join(errs...)
	})
	inTransit := func(subs int) {
		t.Helper()
		for sid := 1; sid <= S; sid++ {
			if q := op.port.lanes[sid-1].q[0]; len(q) != 1 || len(q[0].req.Subs) != subs {
				t.Fatalf("object %d: %d requests in transit, want one with %d sub-requests: %+v", sid, len(q), subs, q)
			}
		}
	}
	inTransit(1)  // the leader's round; the other two are parked behind it
	s.StepAll(op) // it completes; the batch it held back runs
	inTransit(2)
	if err := s.RunOp(op); err != nil {
		t.Fatal(err)
	}
	if _, err := op.Result(); err != nil {
		t.Fatal(err)
	}
	for reg, want := range pairs {
		for sid := 1; sid <= S; sid++ {
			if got := accs[reg].w[sid]; got != want {
				t.Errorf("register %d, object %d: routed %v, want %v", reg, sid, got, want)
			}
		}
	}
}

// reads spawns a reader that runs one read round after another — acc holds
// the current round's accumulator, errs the failed rounds' errors — until the
// simulation closes.
func reads(s *Sim, need int) (op *Op, acc **stateAcc, errs *[]error) {
	acc, errs = new(*stateAcc), new([]error)
	op = s.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, func(c *Client) (types.Value, error) {
		for {
			*acc = &stateAcc{need: need, w: map[int]types.Pair{}}
			if err := c.Round(readSpec("READ", *acc)); errors.Is(err, ErrCrashed) {
				return types.Bottom, err
			} else if err != nil {
				*errs = append(*errs, err)
			}
		}
	})
	return op, acc, errs
}

// TestScriptedSuspectDeferredHedgeFired: a reader that learned a persistent
// liar holds its request back; with a correct object's reply withheld, the
// hedge delay releases the suspect and the round completes; a round nothing
// can complete ends, two timer firings later, in ErrRoundTimeout.
func TestScriptedSuspectDeferredHedgeFired(t *testing.T) {
	const S, liar = 4, 2
	s := New(Config{Servers: S})
	defer s.Close()
	for _, h := range s.Hosts() {
		h.Serve(wire.Request{From: types.Writer, Msg: types.Message{Kind: types.MsgWrite, Pair: pair(1, "a")}})
	}
	s.SetByzantine(liar, server.Garbage{Level: 7, Val: "evil"})
	op, acc, errs := reads(s, S-1)
	for i := 0; len(op.mux.Suspects()) == 0; i++ {
		if i == 20 {
			t.Fatal("20 contradicted reads and nobody is suspected")
		}
		s.Step(op, 1, 2, 3, 4) // the liar is heard within the quorum
	}
	if got := op.mux.Suspects(); !reflect.DeepEqual(got, []int{liar}) {
		t.Fatalf("suspects = %v, want [%d]", got, liar)
	}

	// The round in flight is the first that defers.
	for sid := 1; sid <= S; sid++ {
		want := 1
		if sid == liar {
			want = 0 // deferred
		}
		if n := len(op.port.lanes[sid-1].q[0]); n != want {
			t.Fatalf("object %d: %d requests in transit, want %d", sid, n, want)
		}
	}
	deferred, before := *acc, op.Rounds()
	s.Step(op, 1, 3) // object 4 is correct, and slow
	s.DeliverRequests(op, 4)
	if op.Rounds() != before {
		t.Fatal("round completed on two replies")
	}
	s.FireTimer(op) // the hedge delay
	if len(op.port.lanes[liar-1].q[0]) != 1 {
		t.Fatal("hedge did not release the suspect's request")
	}
	s.Step(op, liar)
	if op.Rounds() != before+1 || len(deferred.w) != S-1 {
		t.Fatalf("round did not complete on the released suspect's reply (%d replies)", len(deferred.w))
	}
	// Wait-freedom holds across a deferral: the correct objects alone (the
	// hedge delay passing if it must) complete a round.
	if err := s.CheckLiveness(op); err != nil {
		t.Fatal(err)
	}

	s.Step(op, 1) // one reply; nothing else will ever be delivered
	s.FireTimer(op)
	if len(*errs) != 0 {
		t.Fatal("the hedge delay ended the round")
	}
	s.FireTimer(op)
	if len(*errs) != 1 || !errors.Is((*errs)[0], tcpnet.ErrRoundTimeout) {
		t.Fatalf("hopeless round: %v, want ErrRoundTimeout", *errs)
	}
}

// TestScriptedWrongEpoch: t+1 objects holding a newer configuration refuse a
// stale-stamped round, which fails at the (t+1)-th refusal with the typed
// redirect; t refusals prove nothing, and the redirect carries its Cause.
func TestScriptedWrongEpoch(t *testing.T) {
	const S, tt = 4, 1
	next := config.Config{Epoch: 2, Addrs: []string{"a", "b", "c", "d"}}
	// activate lands the epoch-2 configuration on objects 1..k: a batched
	// round addressing the config register, delivered to them alone.
	activate := func(s *Sim, k int) {
		op := s.Spawn("reconfig", types.Writer, checker.OpWrite, types.Bottom, func(c *Client) (types.Value, error) {
			return types.Bottom, c.Round(proto.RoundSpec{Label: "CONFIG", Subs: []proto.SubRound{{
				Reg: config.Reg,
				Req: func(int) types.Message {
					return types.Message{Kind: types.MsgWrite, Pair: types.Pair{TS: types.At(1), Val: next.Encode()}}
				},
				Acc: proto.AckAcc(k),
			}}})
		})
		for sid := 1; sid <= k; sid++ {
			s.Step(op, sid)
		}
		if _, err := op.Result(); err != nil {
			t.Fatalf("config write: %v", err)
		}
	}
	query := func(s *Sim, need int) *Op {
		return s.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, func(c *Client) (types.Value, error) {
			return types.Bottom, c.Round(readSpec("READ", &stateAcc{need: need, w: map[int]types.Pair{}}))
		})
	}

	s := New(Config{Servers: S})
	defer s.Close()
	activate(s, tt+1)
	op := query(s, S-tt)
	s.Step(op, 1)
	if op.Done() {
		t.Fatal("round failed on t refusals")
	}
	s.Step(op, 2)
	var we *tcpnet.WrongEpochError
	if _, err := op.Result(); !errors.As(err, &we) {
		t.Fatalf("after t+1 refusals: %v, want a WrongEpochError", err)
	}
	if we.Epoch != next.Epoch || len(we.Hints) != tt+1 || we.Cause != nil {
		t.Errorf("redirect = epoch %d, %d hints, cause %v; want epoch %d, %d hints, no cause", we.Epoch, len(we.Hints), we.Cause, next.Epoch, tt+1)
	}

	s = New(Config{Servers: S})
	defer s.Close()
	activate(s, tt)
	op = query(s, S) // a round the refusal leaves unsatisfiable
	s.StepAll(op)
	we = nil
	if _, err := op.Result(); !errors.As(err, &we) {
		t.Fatalf("t refusals and an unsatisfied quorum: %v, want a WrongEpochError", err)
	}
	if !errors.Is(we.Cause, tcpnet.ErrRoundTimeout) {
		t.Errorf("unproven redirect's cause = %v, want ErrRoundTimeout", we.Cause)
	}
}

// diskLog is a Persister that keeps what the host logs and recovers by
// replaying it (through a scratch Host: the one object step), as
// internal/persist does.
type diskLog struct {
	reqs []wire.Request
	dead bool
}

func (l *diskLog) Recover() (map[int]*server.Store, error) {
	replay, stores := server.NewHosts(1)[0], map[int]*server.Store{}
	for _, req := range l.reqs {
		replay.Serve(req)
		stores[req.Reg] = replay.Store(req.Reg) // the drill logs bare requests only
	}
	return stores, nil
}
func (l *diskLog) Sync() error { return nil }
func (l *diskLog) Write(req wire.Request) error {
	if l.dead {
		return errors.New("disk gone")
	}
	l.reqs = append(l.reqs, req)
	return nil
}
func (l *diskLog) WALSize() int64              { return int64(len(l.reqs)) }
func (l *diskLog) Rotate() (uint64, error)     { return 1, nil }
func (l *diskLog) Commit(uint64, []byte) error { return nil }
func (l *diskLog) Close() error                { return nil }

// TestScriptedCrashWithADisk: an object dropped and rebuilt from a COPY of
// its log (the crashed instance's disk is dead to it: a zombie cannot keep
// writing) serves every write it acknowledged — the read's quorum needs it.
func TestScriptedCrashWithADisk(t *testing.T) {
	th := thresholds(t, 4, 1)
	s := New(Config{Servers: th.S})
	defer s.Close()
	disk := &diskLog{}
	durable, err := server.NewHost(2, disk)
	if err != nil {
		t.Fatal(err)
	}
	s.reg.Resolve(s.addrs[1]).Store(durable)
	var last types.TS
	write := func(v types.Value) *Op {
		return s.Spawn("w-"+string(v), types.Writer, checker.OpWrite, v, func(c *Client) (types.Value, error) {
			w := core.NewWriterAt(c, th, 0, last)
			err := w.Write(v)
			last = w.LastTS()
			return types.Bottom, err
		})
	}
	for _, v := range []types.Value{"a", "b"} { // acknowledged by {1,2,3}; object 4 hears nothing
		for w := write(v); !w.Done(); {
			s.Step(w, 1, 2, 3)
		}
	}
	// Crash: the new instance boots from a copy of the log.
	disk.dead = true
	zombie := s.Hosts()[1]
	reborn, err := server.NewHost(2, &diskLog{reqs: append([]wire.Request(nil), disk.reqs...)})
	if err != nil {
		t.Fatal(err)
	}
	s.reg.Resolve(s.addrs[1]).Store(reborn)
	if _, acked, _, _ := zombie.Serve(wire.Request{From: types.Writer, Msg: types.Message{Kind: types.MsgWrite, Pair: pair(9, "zombie")}}); acked {
		t.Error("the crashed instance acknowledged a write after its disk was taken")
	}
	rd := s.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, func(c *Client) (types.Value, error) {
		return core.NewReader(c, th, 1, 1).Read()
	})
	for !rd.Done() {
		s.Step(rd, 2, 3, 4) // of these only 2 and 3 ever held the writes
	}
	if v, err := rd.Result(); err != nil || v != "b" {
		t.Fatalf("read after restart = %q, %v; want b", v, err)
	}
}

// TestAckLostWriterRestart is the register-level half of ROADMAP 1b: a
// write whose WRITE round reached a quorum and whose every ack was lost,
// its writer crashed, a fresh writer handle with the same identity writing
// again beside two readers, under 200 random schedules — every history
// decided by the multi-writer atomicity checker.
func TestAckLostWriterRestart(t *testing.T) {
	th := thresholds(t, 4, 1)
	for seed := int64(0); seed < 200; seed++ {
		h := &checker.History{}
		s := New(Config{Servers: th.S, History: h})
		w1 := s.Spawn("w1", types.Writer, checker.OpWrite, "a", func(c *Client) (types.Value, error) {
			return types.Bottom, core.NewWriter(c, th).Write("a")
		})
		s.Step(w1, 1, 2, 3) // PREWRITE completes
		if label, _, _ := w1.CurrentRound(); label != "WRITE" {
			t.Fatalf("after PREWRITE the writer is in round %q", label)
		}
		s.DeliverRequests(w1, 1, 2, 3) // WRITE reaches a quorum ...
		s.Crash(w1)                    // ... and no ack reaches the writer
		// The restarted process: to the history a new client (the crashed one's
		// write stays pending for ever), to the register the same writer 0 —
		// with nothing remembered.
		w2 := s.Spawn("w2", types.WriterID(1), checker.OpWrite, "b", func(c *Client) (types.Value, error) {
			return types.Bottom, core.NewWriter(c, th).Write("b")
		})
		ops := []*Op{w2}
		for i := 1; i <= 2; i++ {
			i := i
			ops = append(ops, s.Spawn(fmt.Sprint("r", i), types.Reader(i), checker.OpRead, types.Bottom, func(c *Client) (types.Value, error) {
				return core.NewReader(c, th, i, 2).Read()
			}))
		}
		if err := s.RunConcurrent(seed, ops...); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, op := range ops {
			if _, err := op.Result(); err != nil {
				t.Fatalf("seed %d: %s: %v", seed, op.Label, err)
			}
		}
		// One more read, of the settled register.
		rd := s.Spawn("r-after", types.Reader(1), checker.OpRead, types.Bottom, func(c *Client) (types.Value, error) {
			return core.NewReader(c, th, 1, 2).Read()
		})
		if err := s.RunOp(rd); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := checker.CheckAtomicMW(h); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s.Close()
	}
}

// TestScriptedReadWritesBackIntoSharedRegister: a write completes on objects
// 1–3 (object 4 misses it), and a second writer crashes after its PREWRITE
// reached objects 1..k. Reader r1 queries objects 1, 2 and 4 — two w-reports
// of the complete pair, one short of a hit — decides (the crashed pair once
// two objects hold it) and, no quorum showing the pair complete, writes it
// back. Reader r2, another process with nothing known, then reads under a
// seeded schedule and must return a pair at least as new: every history
// passes the multi-writer checker. And the write-back went where reads look —
// into the shared register: no object holds any other.
func TestScriptedReadWritesBackIntoSharedRegister(t *testing.T) {
	th := thresholds(t, 4, 1)
	for k := 1; k <= th.S; k++ {
		for seed := int64(1); seed <= 3; seed++ {
			h := &checker.History{}
			s := New(Config{Servers: th.S, History: h})
			var last types.TS
			write := func(wid int, v types.Value) *Op {
				return s.Spawn("w-"+string(v), types.WriterID(wid), checker.OpWrite, v, func(c *Client) (types.Value, error) {
					w := core.NewWriterAt(c, th, int64(wid), last)
					err := w.Write(v)
					last = w.LastTS()
					return types.Bottom, err
				})
			}
			for w := write(0, "a"); !w.Done(); {
				s.Step(w, 1, 2, 3)
			}
			w := write(1, "b")
			s.DeliverRequests(w, all(k)...)
			s.Crash(w)

			var r1 *core.Reader
			read := func(idx int, out **core.Reader) *Op {
				return s.Spawn(fmt.Sprint("r", idx), types.Reader(idx), checker.OpRead, types.Bottom, func(c *Client) (types.Value, error) {
					r := core.NewReader(c, th, idx, 2)
					if out != nil {
						*out = r
					}
					return r.Read()
				})
			}
			op1 := read(1, &r1)
			s.Step(op1, 1, 2, 4) // AREAD1: a, a, ⊥ — no hit
			s.Step(op1, 1, 2, 4) // AREAD2: the decision
			if err := s.RunOp(op1); err != nil {
				t.Fatalf("k=%d: r1: %v", k, err)
			}
			v1, err := op1.Result()
			want := types.Value("a") // the crashed pair, held by one object, could be a forgery
			if k >= 2 {
				want = "b"
			}
			if err != nil || v1 != want || r1.Elided {
				t.Fatalf("k=%d: r1 = %q, %v (elided %v); want %q, written back", k, v1, err, r1.Elided, want)
			}
			s.Seed(seed)
			op2 := read(2, nil)
			if err := s.RunOp(op2); err != nil {
				t.Fatalf("k=%d seed %d: r2: %v", k, seed, err)
			}
			if v2, err := op2.Result(); err != nil || v2 < v1 {
				t.Fatalf("k=%d seed %d: r2 = %q, %v after r1 returned %q", k, seed, v2, err, v1)
			}
			if err := checker.CheckAtomicMW(h); err != nil {
				t.Fatalf("k=%d seed %d: %v", k, seed, err)
			}
			for sid := 1; sid <= th.S; sid++ {
				if n := registers(t, s, sid); n != 1 {
					t.Fatalf("k=%d seed %d: object %d holds %d registers, want the shared one alone", k, seed, sid, n)
				}
			}
			s.Close()
		}
	}
}

// all returns object ids 1..k.
func all(k int) []int {
	ids := make([]int, k)
	for i := range ids {
		ids[i] = i + 1
	}
	return ids
}

// registers returns how many registers object sid holds on instance 0, read
// off its snapshot (server.Store's format: a version byte, then a uvarint
// register count).
func registers(t *testing.T, s *Sim, sid int) uint64 {
	t.Helper()
	snap, err := s.Store(sid).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	n, _ := binary.Uvarint(snap[1:])
	return n
}
