package tcpnet

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"robustatomic/internal/checker"
	"robustatomic/internal/core"
	"robustatomic/internal/proto"
	"robustatomic/internal/quorum"
	"robustatomic/internal/regular"
	"robustatomic/internal/server"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

func thresholds(t *testing.T, tt int) quorum.Thresholds {
	t.Helper()
	thr, err := quorum.NewThresholds(3*tt+1, tt)
	if err != nil {
		t.Fatal(err)
	}
	return thr
}

// TestMemAtomicConcurrentClients: one writer and three readers hammer the
// atomic register over the in-memory link, in parallel, with t Byzantine
// objects; the full history must satisfy atomicity. Run with -race.
func TestMemAtomicConcurrentClients(t *testing.T) {
	for _, tt := range []int{1, 2} {
		t.Run(fmt.Sprintf("t=%d", tt), func(t *testing.T) {
			thr := thresholds(t, tt)
			hosts := server.NewHosts(thr.S)
			m := NewMemMux(hosts)
			defer m.Close()
			hosts[0].SetBehavior(server.Garbage{Level: 999, Val: "evil"})
			if tt > 1 {
				hosts[1].SetBehavior(&server.ReplayOnly{Rand: rand.New(rand.NewSource(7))})
			}
			h := &checker.History{}
			const writes, readers = 6, 3
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
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
			}()
			for r := 1; r <= readers; r++ {
				r := r
				wg.Add(1)
				go func() {
					defer wg.Done()
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
				}()
			}
			wg.Wait()
			if err := checker.CheckAtomic(h); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMemBeyondBudgetFailsFast: nothing on the in-memory link can arrive
// later, so a round more than t objects will not answer — partitioned
// (requests lost) or silent (replies withheld) — fails at once as
// unsatisfiable instead of burning its timeout; healed, the next round works.
func TestMemBeyondBudgetFailsFast(t *testing.T) {
	thr := thresholds(t, 1)
	for name, fault := range map[string]func(h *server.Host, on bool){
		"partitioned": func(h *server.Host, on bool) { h.SetPartitioned(on) },
		"silent": func(h *server.Host, on bool) {
			if on {
				h.SetBehavior(server.Silent{})
			} else {
				h.SetBehavior(nil)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			hosts := server.NewHosts(4)
			m := NewMemMux(hosts)
			defer m.Close()
			fault(hosts[1], true)
			fault(hosts[2], true)
			unsat := mMuxUnsat.Value()
			cl := m.Client(types.Writer, 0)
			cl.RoundTimeout = time.Minute
			w := regular.NewWriter(cl, thr, types.WriterReg)
			start := time.Now()
			err := w.Write("v1")
			if !errors.Is(err, ErrRoundTimeout) || errors.Is(err, ErrConnLost) {
				t.Fatalf("write with 2 > t objects not answering: err = %v, want an unsatisfied round", err)
			}
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Fatalf("the round took %v to fail — it waited for replies that cannot come", elapsed)
			}
			if mMuxUnsat.Value() == unsat {
				t.Error("tcpnet_round_unsat_total did not move")
			}
			fault(hosts[1], false)
			fault(hosts[2], false)
			if err := w.Write("v2"); err != nil {
				t.Fatalf("write after heal: %v", err)
			}
		})
	}
}

// TestMemInlineRoundsSpawnNoGoroutines pins the in-memory link: requests
// are served on the round's own goroutine, so many rounds later the goroutine
// count is what it was.
func TestMemInlineRoundsSpawnNoGoroutines(t *testing.T) {
	m := NewMemMux(server.NewHosts(4))
	defer m.Close()
	cl := m.Client(types.Writer, 0)
	round := func() {
		spec := proto.RoundSpec{
			Label: "PROBE",
			Req:   func(int) types.Message { return types.Message{Kind: types.MsgRead1} },
			Acc:   proto.NewCountAcc(4, nil),
		}
		if err := cl.Round(spec); err != nil {
			t.Fatal(err)
		}
	}
	round()
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		round()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew %d → %d across 200 inline rounds", before, after)
	}
}

// TestMemCloseInterruptsRounds: rounds on a closed mux fail (a round that is
// WAITING when the mux closes: internal/sim's TestScheduledCloseInterruptsRounds).
func TestMemCloseInterruptsRounds(t *testing.T) {
	m := NewMemMux(server.NewHosts(4))
	w := regular.NewWriter(m.Client(types.Writer, 0), thresholds(t, 1), types.WriterReg)
	if err := w.Write("a"); err != nil {
		t.Fatal(err)
	}
	m.Close()
	m.Close() // idempotent
	if err := w.Write("b"); err == nil {
		t.Error("a round ran on a closed mux")
	}
}

// batchWriteSpec builds a batched round installing pair p(reg) into each of
// the given register instances (one sub-round per instance), each sub-round
// waiting for need acks.
func batchWriteSpec(kind types.MsgKind, regs []int, p func(reg int) types.Pair, need int) proto.RoundSpec {
	spec := proto.RoundSpec{Label: fmt.Sprintf("BATCH-%v", kind)}
	for _, reg := range regs {
		reg := reg
		spec.Subs = append(spec.Subs, proto.SubRound{
			Reg:   reg,
			Label: kind.String(),
			Req:   func(sid int) types.Message { return types.Message{Kind: kind, Pair: p(reg)} },
			Acc:   proto.NewAckBits(need),
		})
	}
	return spec
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

// TestMemBatchedRounds drives two-phase batched writes (PREWRITE then
// WRITEBACK across several register instances in one physical round each) on
// the in-memory link, alone and with an object that drops
// individual sub-replies out of every batch: each instance converges
// independently, instances the batch never addressed stay untouched.
func TestMemBatchedRounds(t *testing.T) {
	for _, flaky := range []bool{false, true} {
		t.Run(fmt.Sprintf("flaky=%v", flaky), func(t *testing.T) {
			hosts := server.NewHosts(4)
			m := NewMemMux(hosts)
			defer m.Close()
			need := 4
			if flaky {
				hosts[0].SetBehavior(server.Flaky{Rand: rand.New(rand.NewSource(99)), DropProb: 0.7})
				need = 3
			}
			regs := []int{1, 3, 7}
			cl := m.Client(types.Writer, 0)
			var last func(reg int) types.Pair
			for i := 1; i <= 10; i++ {
				pair := func(reg int) types.Pair {
					return types.Pair{TS: types.At(int64(10*i + reg)), Val: types.Value(fmt.Sprintf("batched-%d-%d", i, reg))}
				}
				for _, kind := range []types.MsgKind{types.MsgPreWrite, types.MsgWriteBack} {
					if err := cl.Round(batchWriteSpec(kind, regs, pair, need)); err != nil {
						t.Fatalf("iteration %d, batched %v: %v", i, kind, err)
					}
				}
				last = pair
			}
			if cl.Rounds != 20 {
				t.Errorf("10 batched writes cost %d rounds, want 20", cl.Rounds)
			}
			m.Close() // nothing still in flight while the objects are inspected
			for _, reg := range regs {
				if n := holders(hosts, reg, last(reg)); n < need {
					t.Errorf("instance %d: %d objects hold %v, want ≥ %d", reg, n, last(reg), need)
				}
			}
			if n := holders(hosts, 2, types.Pair{}); n != 4 {
				t.Errorf("instance 2, never addressed, is blank on %d of 4 objects", n)
			}
		})
	}
}

// TestMemBatchedViaCombiner runs concurrent per-register writers through a
// Combiner over one client of the in-memory link: the merged batches produce
// the per-register end state independent rounds would.
func TestMemBatchedViaCombiner(t *testing.T) {
	hosts := server.NewHosts(4)
	m := NewMemMux(hosts)
	defer m.Close()
	comb := proto.NewCombiner(m.Client(types.Writer, 0))
	pair := func(reg int) types.Pair {
		return types.Pair{TS: types.At(int64(100 + reg)), Val: types.Value(fmt.Sprintf("comb-%d", reg))}
	}
	var wg sync.WaitGroup
	for reg := 1; reg <= 6; reg++ {
		reg := reg
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := comb.Rounder(reg)
			for _, kind := range []types.MsgKind{types.MsgPreWrite, types.MsgWriteBack} {
				spec := proto.RoundSpec{
					Label: kind.String(),
					Req:   func(sid int) types.Message { return types.Message{Kind: kind, Pair: pair(reg)} },
					Acc:   proto.NewAckBits(4),
				}
				if err := r.Round(spec); err != nil {
					t.Errorf("reg %d %v: %v", reg, kind, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for reg := 1; reg <= 6; reg++ {
		if n := holders(hosts, reg, pair(reg)); n != 4 {
			t.Errorf("instance %d: %d of 4 objects hold %v", reg, n, pair(reg))
		}
	}
}
