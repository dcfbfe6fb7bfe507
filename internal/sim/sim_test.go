package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"robustatomic/internal/checker"
	"robustatomic/internal/proto"
	"robustatomic/internal/server"
	"robustatomic/internal/tcpnet"
	"robustatomic/internal/types"
)

func pair(ts int64, v string) types.Pair { return types.Pair{TS: types.At(ts), Val: types.Value(v)} }

// queryOp is a toy one-round operation: query all objects, wait for `need`
// MsgState replies, return the max W value seen.
func queryOp(need int) OpFunc {
	return func(c *Client) (types.Value, error) {
		type maxAcc struct {
			*proto.CountAcc
			best *types.Pair
		}
		best := types.BottomPair
		acc := proto.NewCountAcc(need, func(_ int, m types.Message) bool {
			if m.Kind != types.MsgState {
				return false
			}
			best = types.MaxPair(best, m.W)
			return true
		})
		spec := proto.RoundSpec{
			Label: "QUERY",
			Req:   func(int) types.Message { return types.Message{Kind: types.MsgRead1} },
			Acc:   acc,
		}
		if err := c.Round(spec); err != nil {
			return types.Bottom, err
		}
		_ = maxAcc{}
		return best.Val, nil
	}
}

// storeOp is a toy two-round operation: PREWRITE then WRITE a pair to all,
// waiting for `need` acks each round.
func storeOp(p types.Pair, need int) OpFunc {
	return func(c *Client) (types.Value, error) {
		for _, kind := range []types.MsgKind{types.MsgPreWrite, types.MsgWrite} {
			k := kind
			spec := proto.RoundSpec{
				Label: k.String(),
				Req:   func(int) types.Message { return types.Message{Kind: k, Pair: p} },
				Acc:   proto.AckAcc(need),
			}
			if err := c.Round(spec); err != nil {
				return types.Bottom, err
			}
		}
		return types.Bottom, nil
	}
}

func TestRoundCompletesOnQuorum(t *testing.T) {
	s := New(Config{Servers: 4})
	defer s.Close()
	op := s.Spawn("w", types.Writer, checker.OpWrite, "a", storeOp(pair(1, "a"), 3))
	if op.Done() {
		t.Fatal("op done before any delivery")
	}
	s.Step(op, 1, 2, 3) // round 1 quorum
	if label, seq, ok := op.CurrentRound(); !ok || label != "WRITE" || seq != 2 {
		t.Fatalf("after round 1: %q seq=%d ok=%v", label, seq, ok)
	}
	s.Step(op, 1, 2, 4) // round 2 quorum (different set)
	if !op.Done() {
		t.Fatal("op not done after both rounds")
	}
	if op.Rounds() != 2 {
		t.Errorf("rounds = %d, want 2", op.Rounds())
	}
	// Servers 1, 2 got both rounds; 3 only prewrite; 4 only write (after
	// FIFO catch-up it also processed the prewrite).
	if got := s.Store(1).Reg(types.WriterReg); got.W != pair(1, "a") || got.PW != pair(1, "a") {
		t.Errorf("server 1 state %+v", got)
	}
	if got := s.Store(3).Reg(types.WriterReg); got.W != types.BottomPair || got.PW != pair(1, "a") {
		t.Errorf("server 3 state %+v", got)
	}
	if got := s.Store(4).Reg(types.WriterReg); got.W != pair(1, "a") || got.PW != pair(1, "a") {
		t.Errorf("server 4 did not catch up FIFO: %+v", got)
	}
}

func TestInsufficientRepliesKeepRoundOpen(t *testing.T) {
	s := New(Config{Servers: 4})
	defer s.Close()
	op := s.Spawn("w", types.Writer, checker.OpWrite, "a", storeOp(pair(1, "a"), 3))
	s.Step(op, 1, 2)
	if _, seq, _ := op.CurrentRound(); seq != 1 {
		t.Fatalf("round advanced on 2 of 3 needed replies")
	}
	s.Step(op, 3)
	if _, seq, _ := op.CurrentRound(); seq != 2 {
		t.Fatalf("round did not advance on quorum")
	}
}

func TestLateRepliesIgnoredButObserved(t *testing.T) {
	s := New(Config{Servers: 4})
	defer s.Close()
	op := s.Spawn("w", types.Writer, checker.OpWrite, "a", storeOp(pair(1, "a"), 3))
	// Round 1: deliver request to all 4 but replies only from 1..3.
	s.DeliverRequests(op, 1, 2, 3, 4)
	s.DeliverReplies(op, 1, 2, 3)
	// Round 2 in flight; now deliver server 4's late round-1 reply plus its
	// round-2 reply.
	s.DeliverRequests(op, 4)
	s.DeliverReplies(op, 4)
	obs := op.Observations()
	var seqs []int
	for _, o := range obs {
		if o.Server == 4 {
			seqs = append(seqs, o.Seq)
		}
	}
	if !reflect.DeepEqual(seqs, []int{1, 2}) {
		t.Errorf("server 4 reply seqs = %v, want [1 2] (FIFO, late first)", seqs)
	}
	if _, seq, _ := op.CurrentRound(); seq != 2 {
		t.Errorf("late reply advanced the round")
	}
}

func TestByzantineSilentAndLiveness(t *testing.T) {
	s := New(Config{Servers: 4})
	defer s.Close()
	s.SetByzantine(4, server.Silent{})
	op := s.Spawn("w", types.Writer, checker.OpWrite, "a", storeOp(pair(1, "a"), 3))
	if err := s.CheckLiveness(op); err != nil {
		t.Fatalf("liveness violated with quorum available: %v", err)
	}
	if err := s.CheckLiveness(op); err != nil {
		t.Fatalf("second round: %v", err)
	}
	if !op.Done() {
		t.Fatal("op not done")
	}
}

func TestLivenessViolationDetected(t *testing.T) {
	s := New(Config{Servers: 4})
	defer s.Close()
	s.SetByzantine(4, server.Silent{})
	// A protocol that illegally waits for all S replies.
	op := s.Spawn("r", types.Reader(1), checker.OpRead, types.Bottom, queryOp(4))
	err := s.CheckLiveness(op)
	var lv *LivenessError
	if !errors.As(err, &lv) {
		t.Fatalf("expected LivenessError, got %v", err)
	}
	s.Crash(op)
}

func TestRunOpDetectsStuckProtocol(t *testing.T) {
	s := New(Config{Servers: 3})
	defer s.Close()
	s.SetByzantine(3, server.Silent{})
	op := s.Spawn("r", types.Reader(1), checker.OpRead, types.Bottom, queryOp(3))
	err := s.RunOp(op)
	var lv *LivenessError
	if !errors.As(err, &lv) {
		t.Fatalf("expected LivenessError, got %v", err)
	}
	s.Crash(op)
}

func TestCrashMidRound(t *testing.T) {
	h := &checker.History{}
	s := New(Config{Servers: 4, History: h})
	defer s.Close()
	op := s.Spawn("w", types.Writer, checker.OpWrite, "a", storeOp(pair(1, "a"), 3))
	s.Step(op, 1) // not enough
	s.Crash(op)
	if !op.Done() || !op.crashed {
		t.Fatal("crash did not complete op")
	}
	if _, err := op.Result(); !errors.Is(err, ErrCrashed) {
		t.Errorf("result err = %v", err)
	}
	// The write stays pending in the history.
	ops := h.Ops()
	if len(ops) != 1 || ops[0].Complete() {
		t.Errorf("history ops = %v", ops)
	}
}

func TestForgeStateViaRestore(t *testing.T) {
	s := New(Config{Servers: 1})
	defer s.Close()
	w1 := s.Spawn("w1", types.Writer, checker.OpWrite, "a", storeOp(pair(1, "a"), 1))
	s.RunOp(w1)
	snapOld := s.Snapshot(1)
	w2 := s.Spawn("w2", types.Writer, checker.OpWrite, "b", storeOp(pair(2, "b"), 1))
	s.RunOp(w2)
	// Byzantine forging: restore σ_old, reader sees the old state.
	s.SetByzantine(1, nil) // honest-behaving but counted Byzantine
	s.Restore(1, snapOld)
	rd := s.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, queryOp(1))
	s.RunOp(rd)
	v, err := rd.Result()
	if err != nil || v != "a" {
		t.Errorf("read after forge = %q, %v; want a", v, err)
	}
}

func TestDeterministicObservations(t *testing.T) {
	run := func() []Observed {
		s := New(Config{Servers: 4})
		defer s.Close()
		w := s.Spawn("w", types.Writer, checker.OpWrite, "a", storeOp(pair(1, "a"), 3))
		s.Step(w, 2, 3, 1)
		s.Step(w, 4, 1, 2)
		rd := s.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, queryOp(3))
		s.Step(rd, 3, 1, 4)
		return rd.Observations()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical schedules observed differently:\n%v\n%v", a, b)
	}
}

func TestRunConcurrentManySeeds(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		h := &checker.History{}
		s := New(Config{Servers: 4, History: h})
		w := s.Spawn("w", types.Writer, checker.OpWrite, "a", storeOp(pair(1, "a"), 3))
		r1 := s.Spawn("r1", types.Reader(1), checker.OpRead, types.Bottom, queryOp(3))
		r2 := s.Spawn("r2", types.Reader(2), checker.OpRead, types.Bottom, queryOp(3))
		if err := s.RunConcurrent(seed, w, r1, r2); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, op := range []*Op{w, r1, r2} {
			if !op.Done() {
				t.Fatalf("seed %d: op %s pending", seed, op.Label)
			}
			if _, err := op.Result(); err != nil {
				t.Fatalf("seed %d: op %s err %v", seed, op.Label, err)
			}
		}
		s.Close()
	}
}

func TestHistoryRecording(t *testing.T) {
	h := &checker.History{}
	s := New(Config{Servers: 4, History: h})
	defer s.Close()
	w := s.Spawn("w", types.Writer, checker.OpWrite, "a", storeOp(pair(1, "a"), 3))
	s.RunOp(w)
	rd := s.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, queryOp(3))
	s.RunOp(rd)
	ops := h.Ops()
	if len(ops) != 2 {
		t.Fatalf("history has %d ops", len(ops))
	}
	if !ops[0].Complete() || !ops[1].Complete() {
		t.Errorf("ops not complete: %v", ops)
	}
	if ops[1].Ret != "a" {
		t.Errorf("read recorded %q", ops[1].Ret)
	}
	if err := checker.CheckAtomic(h); err != nil {
		t.Errorf("toy history not atomic: %v", err)
	}
}

func TestTraceAndDiagram(t *testing.T) {
	tr := &Trace{}
	s := New(Config{Servers: 4, Trace: tr})
	defer s.Close()
	s.SetByzantine(4, server.Silent{})
	w := s.Spawn("write(1)", types.Writer, checker.OpWrite, "a", storeOp(pair(1, "a"), 3))
	s.Step(w, 1, 2, 3)
	s.Step(w, 1, 2, 3)
	received := func(round, sid int) bool { // on time, ignoring late catch-up deliveries
		for _, ev := range tr.Events {
			if ev.Op == "write(1)" && ev.Round == round && ev.Server == sid && !ev.Late {
				return true
			}
		}
		return false
	}
	if !received(1, 1) || received(1, 4) {
		t.Error("trace receipt wrong")
	}
	if !received(2, 1) || received(3, 1) {
		t.Error("traced rounds wrong")
	}
	d := tr.BlockDiagram([]string{"B1", "B2"}, map[string][]int{
		"B1": {1, 2, 3},
		"B2": {4},
	})
	if !strings.Contains(d, "write(1)") || !strings.Contains(d, "████") {
		t.Errorf("diagram:\n%s", d)
	}
	// B2 (silent byz) received nothing: its cells must be empty.
	lines := strings.Split(d, "\n")
	for _, l := range lines {
		if strings.HasPrefix(l, "B2") && strings.Contains(l, "████") {
			t.Errorf("B2 drawn filled:\n%s", d)
		}
	}
}

func TestSpawnImmediateCompletion(t *testing.T) {
	s := New(Config{Servers: 2})
	defer s.Close()
	op := s.Spawn("noop", types.Reader(1), checker.OpRead, types.Bottom,
		func(c *Client) (types.Value, error) { return "x", nil })
	if !op.Done() {
		t.Fatal("no-round op not done after Spawn")
	}
	if v, err := op.Result(); v != "x" || err != nil {
		t.Errorf("result = %q, %v", v, err)
	}
}

func TestResultBeforeDone(t *testing.T) {
	s := New(Config{Servers: 2})
	defer s.Close()
	op := s.Spawn("w", types.Writer, checker.OpWrite, "a", storeOp(pair(1, "a"), 2))
	if _, err := op.Result(); err == nil {
		t.Error("Result before done did not error")
	}
	s.RunOp(op)
}

// TestLivenessViolationDetectedWhenEveryObjectReplies: the round engine ends
// a round whose every reply is in and whose accumulator is unsatisfied; under
// the simulator that is a wait-freedom violation like any other — the three
// drivers report it, the client stays parked, and only the round's deadline
// hands it the engine's error.
func TestLivenessViolationDetectedWhenEveryObjectReplies(t *testing.T) {
	drivers := map[string]func(*Sim, *Op) error{
		"RunOp":         (*Sim).RunOp,
		"CheckLiveness": (*Sim).CheckLiveness,
		"RunConcurrent": func(s *Sim, op *Op) error { return s.RunConcurrent(1, op) },
	}
	for name, run := range drivers {
		s := New(Config{Servers: 3})
		s.SetByzantine(3, server.Garbage{Level: 9, Val: "evil"}) // a liar that replies
		// A protocol that waits for one more reply than there are objects.
		op := s.Spawn("r", types.Reader(1), checker.OpRead, types.Bottom, queryOp(4))
		if name == "CheckLiveness" {
			s.Step(op, 3) // CheckLiveness itself delivers the correct objects only
		}
		var lv *LivenessError
		if err := run(s, op); !errors.As(err, &lv) {
			t.Errorf("%s: expected LivenessError, got %v", name, err)
		}
		if op.Done() {
			t.Errorf("%s: the stuck operation finished", name)
		}
		s.FireTimer(op)
		if _, err := op.Result(); !errors.Is(err, tcpnet.ErrRoundTimeout) {
			t.Errorf("%s: after the deadline: %v, want ErrRoundTimeout", name, err)
		}
		s.Close()
	}
}
