package core_test

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"robustatomic/internal/checker"
	"robustatomic/internal/core"
	"robustatomic/internal/proto"
	"robustatomic/internal/quorum"
	"robustatomic/internal/secret"
	"robustatomic/internal/server"
	"robustatomic/internal/sim"
	"robustatomic/internal/types"
)

// model builds one failure model's writer handle per operation; the READ
// flow is core.Reader in both (its write-back carries the token its pair was
// read with, 0 in the plain model).
type model struct {
	name  string
	write func(c *sim.Client, last types.TS, k *proto.Known, v types.Value) (types.TS, error)
}

func models(thr quorum.Thresholds, rng *rand.Rand) []model {
	return []model{
		{
			name: "plain",
			write: func(c *sim.Client, last types.TS, k *proto.Known, v types.Value) (types.TS, error) {
				w := core.NewWriterAt(c, thr, 0, last)
				w.UseKnown(k)
				err := w.Write(v)
				return w.LastTS(), err
			},
		},
		{
			name: "secret",
			write: func(c *sim.Client, last types.TS, k *proto.Known, v types.Value) (types.TS, error) {
				w := secret.NewAtomicWriterAt(c, thr, rng, 0, last)
				w.UseKnown(k)
				err := w.Write(v)
				return w.LastTS(), err
			},
		},
	}
}

// byzantine lists the matrix's object faults ("none" leaves all correct).
func byzantine(s *sim.Sim, sid int) map[string]func() server.Behavior {
	return map[string]func() server.Behavior{
		"none":         nil,
		"stale":        func() server.Behavior { return &server.Stale{Snap: s.Snapshot(sid)} },
		"garbage-high": func() server.Behavior { return server.Garbage{Level: 1 << 30, Val: "forged"} },
		"garbage-low":  func() server.Behavior { return server.Garbage{Level: 1, Val: "forged"} },
		"equivocate":   func() server.Behavior { return server.Equivocate{Readers: &server.Stale{}} },
		"falseelide":   func() server.Behavior { return &server.FalseElide{} },
		"silent":       func() server.Behavior { return server.Silent{} },
	}
}

// Read-path tallies across the matrix (subtests run in parallel).
var matrixOneRound, matrixTwoRound, matrixWroteBack atomic.Int64

// TestCrashedWriterByzantineReadMatrix is the safety side of the fast hit:
// after one write that a correct object missed, a writer crashed after its
// PREWRITE reached k objects, or after its WRITE reached k objects, for every
// k — the states in which some objects agree on an old pair and some on a new
// one — crossed with every Byzantine behaviour
// in the repertoire at either end of the delivery order, in both models.
// Readers of distinct identities then read concurrently under a seeded
// random schedule and sequentially after it, alternating warm handles (the
// known-pair set the writer feeds) with cold ones (a set of their own: a new
// process, shipped every value), so one-round, decided and written-back reads
// follow one another in every order. Every history goes through
// checker.CheckAtomicMW: a read that returned a pair a later read could fall
// below would be a new/old inversion there.
func TestCrashedWriterByzantineReadMatrix(t *testing.T) {
	const S, T, R = 4, 1, 3
	thr, err := quorum.NewThresholds(S, T)
	if err != nil {
		t.Fatal(err)
	}
	for mi := range models(thr, nil) {
		for _, phase := range []string{"PREWRITE", "WRITE"} {
			for k := 0; k <= S; k++ {
				for _, byzSID := range []int{1, S} {
					for name := range byzantine(nil, 0) {
						mi, phase, k, byzSID, name := mi, phase, k, byzSID, name
						t.Run(fmt.Sprintf("%d/%s@%d/s%d=%s", mi, phase, k, byzSID, name), func(t *testing.T) {
							t.Parallel()
							for seed := int64(1); seed <= 2; seed++ {
								runMatrixCell(t, thr, R, mi, phase, k, byzSID, name, seed)
							}
						})
					}
				}
			}
		}
	}
	t.Cleanup(func() {
		one, two, wb := matrixOneRound.Load(), matrixTwoRound.Load(), matrixWroteBack.Load()
		t.Logf("read paths over the matrix: %d one-round, %d two-round, %d with write-back (hit ratio %.2f)",
			one, two, wb, float64(one)/float64(max(one+two+wb, 1)))
		if one == 0 || two == 0 || wb == 0 {
			t.Errorf("a read path went unexercised: %d one-round, %d two-round, %d with write-back", one, two, wb)
		}
	})
}

func runMatrixCell(t *testing.T, thr quorum.Thresholds, readers, mi int, phase string, k, byzSID int, fault string, seed int64) {
	rng := rand.New(rand.NewSource(seed*7919 + int64(k)))
	m := models(thr, rng)[mi]
	h := &checker.History{}
	s := sim.New(sim.Config{Servers: thr.S, History: h})
	defer s.Close()
	known := proto.NewKnown(thr)
	var last types.TS

	write := func(v types.Value) *sim.Op {
		return s.Spawn("w"+string(v), types.Writer, checker.OpWrite, v, func(c *sim.Client) (types.Value, error) {
			ts, err := m.write(c, last, known, v)
			if err == nil {
				last = ts
			}
			return types.Bottom, err
		})
	}
	read := func(label string, idx int, cold bool) *sim.Op {
		return s.Spawn(label, types.Reader(idx), checker.OpRead, types.Bottom, func(c *sim.Client) (types.Value, error) {
			r := core.NewReader(c, thr, idx, readers)
			if !cold {
				r.UseKnown(known)
			}
			v, err := r.Read()
			if err != nil {
				return types.Bottom, err
			}
			switch {
			case r.Hit && r.Elided:
				matrixOneRound.Add(1)
			case r.Elided:
				matrixTwoRound.Add(1)
			default:
				matrixWroteBack.Add(1)
			}
			return v, nil
		})
	}

	if err := s.RunOp(write("a")); err != nil {
		t.Fatal(err)
	}
	if mk := byzantine(s, byzSID)[fault]; mk != nil {
		s.SetByzantine(byzSID, mk())
	}
	// "b" completes without the correct object s2, which stays at "a" for
	// the rest of the run (with a stale Byzantine neighbour: 2t objects that
	// agree on the overwritten pair, one short of a hit).
	all := make([]int, thr.S)
	for i := range all {
		all[i] = i + 1
	}
	w := write("b")
	for i := 0; i < 2 && !w.Done(); i++ {
		s.Step(w, 1, 3, 4)
	}
	if !w.Done() { // the Byzantine object withheld its acknowledgements
		s.StepAll(w)
		s.StepAll(w)
	}
	if !w.Done() {
		t.Fatal("write b did not complete")
	}
	// The crashed write of "c": delivery order 1..S, so the Byzantine object
	// is the first (s1) or the last (sS) to be reached.
	w = write("c")
	if phase == "WRITE" {
		s.Step(w, all...) // PREWRITE completes everywhere; WRITE is posted
	}
	s.DeliverRequests(w, all[:k]...)
	s.Crash(w)

	// Concurrent readers of distinct identities: two warm, one cold.
	ops := []*sim.Op{read("c1", 1, false), read("c2", 2, true), read("c3", 3, false)}
	if err := s.RunConcurrent(seed, ops...); err != nil {
		t.Fatalf("liveness: %v", err)
	}
	// Sequential readers: warm and cold handles alternate.
	for i, cold := range []bool{false, true, false, true, false, false} {
		idx := i%readers + 1
		if err := s.RunOp(read(fmt.Sprintf("q%d", i), idx, cold)); err != nil {
			t.Fatalf("sequential read %d: %v", i, err)
		}
	}
	if err := checker.CheckAtomicMW(h); err != nil {
		t.Fatalf("%s: %v", m.name, err)
	}
}
