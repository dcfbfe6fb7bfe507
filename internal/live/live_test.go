package live

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"robustatomic/internal/abd"
	"robustatomic/internal/checker"
	"robustatomic/internal/core"
	"robustatomic/internal/proto"
	"robustatomic/internal/quorum"
	"robustatomic/internal/regular"
	"robustatomic/internal/secret"
	"robustatomic/internal/server"
	"robustatomic/internal/types"
)

func th(t *testing.T, s, tt int) quorum.Thresholds {
	t.Helper()
	out, err := quorum.NewThresholds(s, tt)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestLiveRegularRegister(t *testing.T) {
	thr := th(t, 4, 1)
	c := New(Config{Servers: 4, Seed: 1, MaxDelay: 200 * time.Microsecond})
	defer c.Close()
	w := regular.NewWriter(c.NewClient(types.Writer), thr, types.WriterReg)
	if err := w.Write("a"); err != nil {
		t.Fatal(err)
	}
	rd := regular.NewReader(c.NewClient(types.Reader(1)), thr, types.WriterReg)
	v, err := rd.Read()
	if err != nil {
		t.Fatal(err)
	}
	if v != "a" {
		t.Errorf("read = %q", v)
	}
}

func TestLiveAtomicConcurrentClients(t *testing.T) {
	// One writer goroutine and three reader goroutines hammer the atomic
	// register under random delays with t Byzantine objects; the full
	// history must satisfy atomicity. Run with -race.
	for _, tt := range []int{1, 2} {
		tt := tt
		t.Run(fmt.Sprintf("t=%d", tt), func(t *testing.T) {
			S := 3*tt + 1
			thr := th(t, S, tt)
			c := New(Config{Servers: S, Seed: int64(tt), MaxDelay: 300 * time.Microsecond})
			defer c.Close()
			for i := 1; i <= tt; i++ {
				switch i % 3 {
				case 0:
					c.SetByzantine(i, server.Silent{})
				case 1:
					c.SetByzantine(i, server.Garbage{Level: 999, Val: "evil"})
				case 2:
					c.SetByzantine(i, &server.ReplayOnly{Rand: rand.New(rand.NewSource(7))})
				}
			}
			h := &checker.History{}
			const writes, readers = 6, 3
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := core.NewWriter(c.NewClient(types.Writer), thr)
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
					rd := core.NewReader(c.NewClient(types.Reader(r)), thr, r, readers)
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

func TestLiveSecretAtomicFastPath(t *testing.T) {
	thr := th(t, 4, 1)
	c := New(Config{Servers: 4, Seed: 3})
	defer c.Close()
	rng := rand.New(rand.NewSource(9))
	w := secret.NewAtomicWriter(c.NewClient(types.Writer), thr, rng)
	if err := w.Write("a"); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient(types.Reader(1))
	rd := secret.NewAtomicReader(cl, thr, rng, 1, 2)
	// The write returns after 2t+1 acknowledgements; the last object's
	// request may still be in flight, so the very first read can
	// legitimately see a split view and take the slow path. Quiescence must
	// make the fast path happen within a few reads — and at S = 3t+1 a fast
	// hit's 2t+1 identical tuples are exactly the S−t quorum that certifies
	// the write as complete, so the write-back is elided too: a single
	// physical round.
	fast := false
	for i := 0; i < 5 && !fast; i++ {
		before := cl.Rounds
		v, err := rd.Read()
		if err != nil {
			t.Fatal(err)
		}
		if v != "a" {
			t.Fatalf("read = %q", v)
		}
		if rd.Hit {
			fast = true
			if got := cl.Rounds - before; got != 1 {
				t.Errorf("fast-path read rounds = %d, want 1 (write-back elided)", got)
			}
		}
	}
	if !fast {
		t.Error("no contention-free read took the fast path in 5 attempts")
	}
}

func TestLiveABD(t *testing.T) {
	cfg := abd.Config{S: 3, F: 1}
	c := New(Config{Servers: 3, Seed: 4, MaxDelay: 100 * time.Microsecond})
	defer c.Close()
	w := abd.NewWriter(c.NewClient(types.Writer), cfg)
	for i := 1; i <= 3; i++ {
		if err := w.Write(types.Value(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	rd := abd.NewReader(c.NewClient(types.Reader(1)), cfg)
	v, err := rd.Read()
	if err != nil {
		t.Fatal(err)
	}
	if v != "v3" {
		t.Errorf("read = %q", v)
	}
}

func TestLiveRoundCounting(t *testing.T) {
	thr := th(t, 4, 1)
	c := New(Config{Servers: 4, Seed: 5})
	defer c.Close()
	wcl := c.NewClient(types.Writer)
	w := core.NewWriter(wcl, thr)
	if err := w.Write("a"); err != nil {
		t.Fatal(err)
	}
	if wcl.Rounds != 2 {
		t.Errorf("atomic write rounds = %d, want 2 (uncontended adaptive fast path)", wcl.Rounds)
	}
	rcl := c.NewClient(types.Reader(1))
	rd := core.NewReader(rcl, thr, 1, 2)
	if _, err := rd.Read(); err != nil {
		t.Fatal(err)
	}
	// The read's two query rounds certify the completed write, so the
	// write-back is elided (4 rounds remain the Prop. 1 worst case, pinned
	// by internal/core's fallback tests).
	if rcl.Rounds != 2 {
		t.Errorf("atomic read rounds = %d, want 2 (write-back elided)", rcl.Rounds)
	}
}

// TestFastPathSpawnsNoGoroutines pins the MaxDelay == 0 fast path: rounds
// deliver requests and replies inline, so the goroutine count after many
// rounds equals the count before (with asynchrony injection every message
// costs a goroutine; that path is exercised by the MaxDelay > 0 tests).
func TestFastPathSpawnsNoGoroutines(t *testing.T) {
	c := New(Config{Servers: 4, Seed: 8})
	defer c.Close()
	cl := c.NewClient(types.Writer)
	round := func() {
		// Need all S replies so the round consumes every deposit before
		// returning and no overflow fallback can fire.
		spec := proto.RoundSpec{
			Label: "PROBE",
			Req:   func(int) types.Message { return types.Message{Kind: types.MsgRead1} },
			Acc:   proto.NewCountAcc(4, nil),
		}
		if err := cl.Round(spec); err != nil {
			t.Fatal(err)
		}
	}
	round() // warm up (lazily allocates the round timer)
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		round()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew %d → %d across 200 fast-path rounds", before, after)
	}
}

func TestLiveRoundStuckSurfaces(t *testing.T) {
	// With 2 > t silent objects the quorum never forms; the round times out
	// rather than hanging.
	thr := th(t, 4, 1)
	c := New(Config{Servers: 4, Seed: 6, RoundTimeout: 50 * time.Millisecond})
	defer c.Close()
	c.SetByzantine(1, server.Silent{})
	c.SetByzantine(2, server.Silent{})
	w := regular.NewWriter(c.NewClient(types.Writer), thr, types.WriterReg)
	if err := w.Write("a"); err == nil {
		t.Fatal("write succeeded with 2 silent objects out of 4")
	}
}

func TestLiveCloseInterruptsRounds(t *testing.T) {
	thr := th(t, 4, 1)
	c := New(Config{Servers: 4, Seed: 7, RoundTimeout: time.Minute})
	c.SetByzantine(1, server.Silent{})
	c.SetByzantine(2, server.Silent{})
	errCh := make(chan error, 1)
	go func() {
		w := regular.NewWriter(c.NewClient(types.Writer), thr, types.WriterReg)
		errCh <- w.Write("a")
	}()
	time.Sleep(10 * time.Millisecond)
	c.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("round survived cluster shutdown")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("round did not observe shutdown")
	}
}
