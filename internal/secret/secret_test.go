package secret

import (
	"fmt"
	"math/rand"
	"testing"

	"robustatomic/internal/checker"
	"robustatomic/internal/core"
	"robustatomic/internal/proto"
	"robustatomic/internal/quorum"
	"robustatomic/internal/regular"
	"robustatomic/internal/server"
	"robustatomic/internal/sim"
	"robustatomic/internal/types"
)

// NewWriter returns the base register's handle of writer 0, starting fresh.
func NewWriter(r proto.Rounder, th quorum.Thresholds, rng *rand.Rand) *regular.Writer {
	return NewWriterAt(r, th, rng, 0, types.TS{})
}

// Reader reads the base secret-token register on its own (no atomic
// transformation): one round on the fast path, two on the slow path. A
// reference for these tests; the deployed read flow is core.Reader.
type Reader struct {
	rounder proto.Rounder
	th      quorum.Thresholds
	// FastPath reports whether the last read decided on its first round.
	FastPath bool
}

// NewReader returns a reader handle.
func NewReader(r proto.Rounder, th quorum.Thresholds) *Reader {
	return &Reader{rounder: r, th: th}
}

// Read returns the register value.
func (r *Reader) Read() (types.Value, error) {
	p, err := r.ReadPair()
	return p.Val, err
}

// ReadPair runs the regular read (regular.ReadPairOn): one round when 2t+1
// objects exhibit the same written (pair, token) tuple, the unauthenticated
// decision round over the frozen first view otherwise.
func (r *Reader) ReadPair() (types.Pair, error) {
	acc := regular.NewReadAcc(r.th)
	var ra proto.RegAcc
	ra.Part(types.WriterReg, types.Message{Kind: types.MsgRead1}, acc)
	p, err := regular.ReadPairOn(r.rounder, &ra, acc, [2]string{"READ1", "READ2"}, nil)
	if err != nil {
		return types.Pair{}, fmt.Errorf("secret: %w", err)
	}
	r.FastPath = acc.Hit()
	return p, nil
}

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
	thr  quorum.Thresholds
	rng  *rand.Rand
	ts   types.TS
	fast bool
	// known is shared by the per-operation handles, as one Store shard's
	// handles share theirs: the tests run with value-eliding reads warm.
	known *proto.Known
}

func newHarness(thr quorum.Thresholds, seed int64) *harness {
	return &harness{thr: thr, rng: rand.New(rand.NewSource(seed)), known: proto.NewKnown(thr)}
}

func (h *harness) writeOp(v types.Value) sim.OpFunc {
	return func(c *sim.Client) (types.Value, error) {
		w := NewAtomicWriterAt(c, h.thr, h.rng, 0, h.ts)
		w.UseKnown(h.known)
		if err := w.Write(v); err != nil {
			return types.Bottom, err
		}
		h.ts = w.LastTS()
		return types.Bottom, nil
	}
}

func (h *harness) readOp(idx, readers int) sim.OpFunc {
	return func(c *sim.Client) (types.Value, error) {
		r := core.NewReader(c, h.thr, idx, readers)
		r.UseKnown(h.known)
		v, err := r.Read()
		if err != nil {
			return types.Bottom, err
		}
		h.fast = r.Hit
		return v, nil
	}
}

func TestBaseRegisterFastRead(t *testing.T) {
	thr := th(t, 4, 1)
	rng := rand.New(rand.NewSource(1))
	s := sim.New(sim.Config{Servers: 4})
	defer s.Close()
	w := s.Spawn("w", types.Writer, checker.OpWrite, "a", func(c *sim.Client) (types.Value, error) {
		return types.Bottom, NewWriter(c, thr, rng).Write("a")
	})
	mustRun(t, s, w)
	if w.Rounds() != 2 {
		t.Errorf("write rounds = %d", w.Rounds())
	}
	rd := s.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, func(c *sim.Client) (types.Value, error) {
		r := NewReader(c, thr)
		v, err := r.Read()
		if err == nil && !r.FastPath {
			return types.Bottom, fmt.Errorf("contention-free read took the slow path")
		}
		return v, err
	})
	if v := mustRun(t, s, rd); v != "a" {
		t.Errorf("read = %q", v)
	}
	if rd.Rounds() != 1 {
		t.Errorf("contention-free base read rounds = %d, want 1", rd.Rounds())
	}
}

func TestBaseRegisterSlowPathUnderStaleness(t *testing.T) {
	// A stale Byzantine object plus a slow correct one deny the unanimous
	// quorum; the read falls back to the 2-round decision and stays safe.
	thr := th(t, 4, 1)
	rng := rand.New(rand.NewSource(2))
	s := sim.New(sim.Config{Servers: 4})
	defer s.Close()
	var wTS types.TS
	write := func(v types.Value, sids ...int) {
		w := s.Spawn("w"+string(v), types.Writer, checker.OpWrite, v, func(c *sim.Client) (types.Value, error) {
			rw := NewWriterAt(c, thr, rng, 0, wTS) // base (non-atomic) writes only
			if err := rw.Write(v); err != nil {
				return types.Bottom, err
			}
			wTS = rw.LastTS()
			return types.Bottom, nil
		})
		if len(sids) == 0 {
			mustRun(t, s, w)
			return
		}
		s.Step(w, sids...)
		s.Step(w, sids...)
		if !w.Done() {
			t.Fatal("partial write did not complete")
		}
	}
	write("a")
	snap := s.Snapshot(1)
	write("b", 1, 3, 4) // object 2 remains stale-correct
	s.SetByzantine(1, &server.Stale{Snap: snap})
	rd := s.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, func(c *sim.Client) (types.Value, error) {
		r := NewReader(c, thr)
		v, err := r.Read()
		if err == nil && r.FastPath {
			return types.Bottom, fmt.Errorf("read took fast path on a split view")
		}
		return v, err
	})
	if v := mustRun(t, s, rd); v != "b" {
		t.Errorf("read = %q, want b", v)
	}
}

func TestAtomicThreeRoundReads(t *testing.T) {
	// The Section 5 secret-model claim, adaptive multi-writer form: 2-round
	// writes (the two token-carrying phases — the optimistic proposal
	// certifies uncontended). Reads improve on the cited [DMSS09] 3-round
	// contention-free optimum: the fast hit's 2t+1 identical tuples are, at
	// S = 3t+1, exactly the S−t elision quorum, so a stable read is a
	// SINGLE round (worst case stays 4 — see TestRandomizedAtomicity's
	// contended runs and the core package's Prop. 1 discussion).
	thr := th(t, 4, 1)
	h := newHarness(thr, 3)
	s := sim.New(sim.Config{Servers: 4})
	defer s.Close()
	w := s.Spawn("w", types.Writer, checker.OpWrite, "a", h.writeOp("a"))
	mustRun(t, s, w)
	if w.Rounds() != 2 {
		t.Errorf("atomic write rounds = %d, want 2", w.Rounds())
	}
	rd := s.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, h.readOp(1, 2))
	if v := mustRun(t, s, rd); v != "a" {
		t.Errorf("read = %q", v)
	}
	if !h.fast {
		t.Error("contention-free atomic read took slow path")
	}
	if rd.Rounds() != 1 {
		t.Errorf("atomic read rounds = %d, want 1 (fast path + elided write-back)", rd.Rounds())
	}
}

func TestAtomicReadsWithByzantine(t *testing.T) {
	for _, tt := range []int{1, 2} {
		S := 3*tt + 1
		thr := th(t, S, tt)
		h := newHarness(thr, int64(tt))
		hist := &checker.History{}
		s := sim.New(sim.Config{Servers: S, History: hist})
		mustRun(t, s, s.Spawn("w1", types.Writer, checker.OpWrite, "a", h.writeOp("a")))
		for i := 1; i <= tt; i++ {
			s.SetByzantine(i, server.Garbage{Level: 1 << 20, Val: "evil"})
		}
		mustRun(t, s, s.Spawn("w2", types.Writer, checker.OpWrite, "b", h.writeOp("b")))
		rd := s.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, h.readOp(1, 2))
		if v := mustRun(t, s, rd); v != "b" {
			t.Errorf("t=%d: read = %q, want b", tt, v)
		}
		rd2 := s.Spawn("rd2", types.Reader(2), checker.OpRead, types.Bottom, h.readOp(2, 2))
		if v := mustRun(t, s, rd2); v != "b" {
			t.Errorf("t=%d: second read = %q, want b", tt, v)
		}
		if err := checker.CheckAtomic(hist); err != nil {
			t.Error(err)
		}
		s.Close()
	}
}

// TestAtomicReadsDespiteFalseElide: the secret-model reader inflates through
// the same multiplexed accumulator as the unauthenticated one, so elision
// claims the request never justified cost it only the liar's replies — and
// an elided (pair, token) tuple still counts toward the single-round fast
// path, tokens being sent alongside the elided value.
func TestAtomicReadsDespiteFalseElide(t *testing.T) {
	for _, tt := range []int{1, 2} {
		S := 3*tt + 1
		thr := th(t, S, tt)
		h := newHarness(thr, int64(tt))
		hist := &checker.History{}
		s := sim.New(sim.Config{Servers: S, History: hist})
		mustRun(t, s, s.Spawn("w1", types.Writer, checker.OpWrite, "a", h.writeOp("a")))
		// Warm the set on an honest cluster: the hinted read stays fast.
		mustRun(t, s, s.Spawn("r0", types.Reader(1), checker.OpRead, types.Bottom, h.readOp(1, 2)))
		mustRun(t, s, s.Spawn("r0'", types.Reader(1), checker.OpRead, types.Bottom, h.readOp(1, 2)))
		if !h.fast {
			t.Errorf("t=%d: hinted read of a settled register left the single-round path", tt)
		}
		for i := 1; i <= tt; i++ {
			if i%2 == 0 {
				s.SetByzantine(i, server.Equivocate{Readers: &server.FalseElide{}})
			} else {
				s.SetByzantine(i, &server.FalseElide{})
			}
		}
		for i, want := range []types.Value{"a", "b", "c"} {
			if i > 0 {
				mustRun(t, s, s.Spawn(fmt.Sprint("w", i+1), types.Writer, checker.OpWrite, want, h.writeOp(want)))
			}
			for rd := 1; rd <= 2; rd++ {
				for n := 0; n < 2; n++ {
					op := s.Spawn(fmt.Sprintf("r%d.%d.%d", rd, i, n), types.Reader(rd), checker.OpRead, types.Bottom, h.readOp(rd, 2))
					if v := mustRun(t, s, op); v != want {
						t.Errorf("t=%d: reader %d after write %q read %q", tt, rd, want, v)
					}
				}
			}
		}
		if err := checker.CheckAtomicMW(hist); err != nil {
			t.Error(err)
		}
		s.Close()
	}
}

func TestRandomizedAtomicity(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 12
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed * 2654435761))
			tt := 1 + rng.Intn(2)
			S := 3*tt + 1
			thr := th(t, S, tt)
			h := newHarness(thr, seed)
			hist := &checker.History{}
			s := sim.New(sim.Config{Servers: S, History: hist})
			defer s.Close()
			nByz := rng.Intn(tt + 1)
			perm := rng.Perm(S)
			for i := 0; i < nByz; i++ {
				sid := perm[i] + 1
				switch rng.Intn(4) {
				case 0:
					s.SetByzantine(sid, server.Silent{})
				case 1:
					s.SetByzantine(sid, server.Garbage{Level: int64(rng.Intn(9)), Val: "evil"})
				case 2:
					s.SetByzantine(sid, &server.ReplayOnly{Rand: rng})
				default:
					s.SetByzantine(sid, &server.Stale{Snap: s.Snapshot(sid)})
				}
			}
			const R = 2
			readers := make([]*sim.Op, R)
			for i := 1; i <= R; i++ {
				readers[i-1] = s.Spawn(fmt.Sprintf("r%d", i), types.Reader(i), checker.OpRead, types.Bottom, h.readOp(i, R))
			}
			for i := 1; i <= 2; i++ {
				v := types.Value(fmt.Sprintf("v%d", i))
				w := s.Spawn(fmt.Sprintf("w%d", i), types.Writer, checker.OpWrite, v, h.writeOp(v))
				ops := append([]*sim.Op{w}, readers...)
				if err := s.RunConcurrent(seed*7+int64(i), ops...); err != nil {
					t.Fatalf("liveness: %v", err)
				}
			}
			for _, rd := range readers {
				if err := s.RunOp(rd); err != nil {
					t.Fatal(err)
				}
			}
			if err := checker.CheckAtomic(hist); err != nil {
				t.Fatal(err)
			}
		})
	}
}
