package proto

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"robustatomic/internal/types"
)

// fakeRounder is a scriptable batch-capable inner Rounder: it records every
// spec, optionally blocks each call on a gate, and runs a per-call behavior
// (default: acknowledge every sub-round and succeed).
type fakeRounder struct {
	mu    sync.Mutex
	calls []RoundSpec
	gate  chan struct{}
	run   func(call int, spec RoundSpec) error
}

func (f *fakeRounder) Round(spec RoundSpec) error {
	f.mu.Lock()
	call := len(f.calls)
	f.calls = append(f.calls, spec)
	f.mu.Unlock()
	if f.gate != nil {
		<-f.gate
	}
	if f.run != nil {
		return f.run(call, spec)
	}
	for i := range spec.Subs {
		spec.Subs[i].Acc.Add(1, types.Message{Kind: types.MsgAck})
	}
	return nil
}

func (f *fakeRounder) NumServers() int { return 1 }

func (f *fakeRounder) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

func ackRound(label string) RoundSpec {
	return RoundSpec{
		Label: label,
		Req:   func(sid int) types.Message { return types.Message{Kind: types.MsgWrite} },
		Acc:   AckAcc(1),
	}
}

// waitFor polls until cond holds (combiner state transitions are
// asynchronous but fast).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// pendingSubs snapshots the registers of the combiner's pending batch
// (white-box; same package).
func pendingSubs(c *Combiner) []int {
	var regs []int
	for _, s := range c.group.Pending() {
		regs = append(regs, s.Reg)
	}
	return regs
}

func regsOf(spec RoundSpec) map[int]bool {
	m := make(map[int]bool)
	for _, s := range spec.Subs {
		m[s.Reg] = true
	}
	return m
}

// TestCombinerPassThrough: with no concurrency a round runs immediately as
// a one-sub batch and succeeds.
func TestCombinerPassThrough(t *testing.T) {
	f := &fakeRounder{}
	c := NewCombiner(f)
	if err := c.Rounder(3).Round(ackRound("SOLO")); err != nil {
		t.Fatal(err)
	}
	if len(f.calls) != 1 || len(f.calls[0].Subs) != 1 || f.calls[0].Subs[0].Reg != 3 {
		t.Fatalf("inner saw %+v, want one 1-sub batch for reg 3", f.calls)
	}
	if got := f.calls[0].Label; got != "SOLO" {
		t.Errorf("merged label = %q, want SOLO (single-sub batches keep their label)", got)
	}
}

// TestCombinerMergesConcurrentRounds: rounds for distinct registers that
// arrive while a merged round is in flight coalesce into ONE inner round.
func TestCombinerMergesConcurrentRounds(t *testing.T) {
	f := &fakeRounder{gate: make(chan struct{})}
	c := NewCombiner(f)
	errs := make(chan error, 3)
	go func() { errs <- c.Rounder(1).Round(ackRound("LEAD")) }()
	waitFor(t, "leader to start", func() bool { return f.callCount() == 1 })

	go func() { errs <- c.Rounder(2).Round(ackRound("W2")) }()
	waitFor(t, "reg 2 to enqueue", func() bool { return len(pendingSubs(c)) == 1 })
	go func() { errs <- c.Rounder(3).Round(ackRound("W3")) }()
	waitFor(t, "reg 3 to join the batch", func() bool { return len(pendingSubs(c)) == 2 })

	f.gate <- struct{}{} // release the leader; one of the waiters leads the batch
	f.gate <- struct{}{} // release the merged batch
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if got := f.callCount(); got != 2 {
		t.Fatalf("inner ran %d rounds, want 2 (leader + one merged batch)", got)
	}
	merged := f.calls[1]
	if len(merged.Subs) != 2 || !regsOf(merged)[2] || !regsOf(merged)[3] {
		t.Fatalf("merged batch covers %+v, want regs {2,3}", regsOf(merged))
	}
	if want := fmt.Sprintf("BATCH(2:%s+1)", merged.Subs[0].Label); merged.Label != want {
		t.Errorf("merged label = %q, want %q", merged.Label, want)
	}
}

// TestCombinerPerSubErrorMapping: when a merged round errors, a waiter whose
// own (monotone) accumulator was satisfied still succeeds; only unsatisfied
// waiters inherit the batch error.
func TestCombinerPerSubErrorMapping(t *testing.T) {
	errBoom := errors.New("sibling quorum timed out")
	f := &fakeRounder{gate: make(chan struct{})}
	f.run = func(call int, spec RoundSpec) error {
		if call == 0 {
			for i := range spec.Subs {
				spec.Subs[i].Acc.Add(1, types.Message{Kind: types.MsgAck})
			}
			return nil
		}
		// The merged batch: satisfy only register 1's sub-round.
		for i := range spec.Subs {
			if spec.Subs[i].Reg == 1 {
				spec.Subs[i].Acc.Add(1, types.Message{Kind: types.MsgAck})
			}
		}
		return errBoom
	}
	c := NewCombiner(f)
	lead := make(chan error, 1)
	go func() { lead <- c.Rounder(9).Round(ackRound("LEAD")) }()
	waitFor(t, "leader to start", func() bool { return f.callCount() == 1 })

	got := make(map[int]chan error)
	for _, reg := range []int{1, 2} {
		reg := reg
		ch := make(chan error, 1)
		got[reg] = ch
		go func() { ch <- c.Rounder(reg).Round(ackRound(fmt.Sprintf("W%d", reg))) }()
	}
	waitFor(t, "both rounds to enqueue", func() bool { return len(pendingSubs(c)) == 2 })
	f.gate <- struct{}{}
	f.gate <- struct{}{}
	if err := <-lead; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if err := <-got[1]; err != nil {
		t.Errorf("satisfied sub-round returned %v, want nil", err)
	}
	if err := <-got[2]; !errors.Is(err, errBoom) {
		t.Errorf("unsatisfied sub-round returned %v, want the batch error", err)
	}
}

// TestCombinerRejectsBatchedSpecs: already-batched specs cannot be
// re-batched.
func TestCombinerRejectsBatchedSpecs(t *testing.T) {
	c := NewCombiner(&fakeRounder{})
	spec := RoundSpec{Label: "NESTED", Subs: []SubRound{{Reg: 1, Acc: AckAcc(1)}}}
	if err := c.Rounder(1).Round(spec); err == nil {
		t.Fatal("re-batching a batched spec succeeded")
	}
}

// TestCombinerConcurrentStress drives one goroutine per register across
// many registers and checks every round completes (run with -race).
func TestCombinerConcurrentStress(t *testing.T) {
	f := &fakeRounder{}
	c := NewCombiner(f)
	var wg sync.WaitGroup
	for reg := 1; reg <= 8; reg++ {
		reg := reg
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := c.Rounder(reg)
			for i := 0; i < 50; i++ {
				if err := r.Round(ackRound(fmt.Sprintf("R%d/%d", reg, i))); err != nil {
					t.Errorf("reg %d round %d: %v", reg, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := f.callCount(); got > 8*50 {
		t.Errorf("inner ran %d rounds for 400 logical rounds", got)
	}
}
