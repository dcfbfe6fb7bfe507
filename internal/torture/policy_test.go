package torture

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"robustatomic/internal/tcpnet"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		// The sentinels, bare and wrapped the way the protocol stacks wrap
		// them (mux → register → store adds layers of %w).
		{tcpnet.ErrConnLost, Transient},
		{fmt.Errorf("mw: write: %w", tcpnet.ErrConnLost), Transient},
		{fmt.Errorf("store: put k: %w: s2 died", tcpnet.ErrConnLost), Transient},
		{tcpnet.ErrRoundTimeout, Degraded},
		{fmt.Errorf("retry: read round 3: %w", tcpnet.ErrRoundTimeout), Degraded},
		// What an in-process round no quorum can satisfy fails with, at once.
		{fmt.Errorf("%w: WRITE: all replies in, accumulator unsatisfied", tcpnet.ErrRoundTimeout), Degraded},
		// Wrong-epoch redirects: the typed error the mux returns unwraps to
		// the sentinel, so the classifier sees it through any wrapping.
		{tcpnet.ErrWrongEpoch, Reconfig},
		{&tcpnet.WrongEpochError{Label: "mw write", Epoch: 3}, Reconfig},
		{fmt.Errorf("store: flush: %w", &tcpnet.WrongEpochError{Epoch: 5}), Reconfig},
		// Everything else must not be retried.
		{errors.New("wire: protocol generation mismatch"), Fatal},
		{nil, Fatal},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestBackoffDegradedGrowsToCap(t *testing.T) {
	b := &Backoff{Base: 2 * time.Millisecond, Cap: 64 * time.Millisecond}
	timeout := fmt.Errorf("round: %w", tcpnet.ErrRoundTimeout)
	want := []time.Duration{2, 4, 8, 16, 32, 64, 64, 64}
	for i, w := range want {
		if got := b.Next(timeout); got != w*time.Millisecond {
			t.Fatalf("degraded delay %d = %v, want %v", i, got, w*time.Millisecond)
		}
	}
}

func TestBackoffTransientStaysFlat(t *testing.T) {
	// Connection loss fails fast and the mux's DialBackoff already throttles
	// redials — the client-side pause must stay flat, or a kill -9'd daemon
	// would take seconds of accumulated backoff to be reintegrated.
	b := &Backoff{Base: 2 * time.Millisecond, Cap: 64 * time.Millisecond}
	lost := fmt.Errorf("burst: %w", tcpnet.ErrConnLost)
	for i := 0; i < 20; i++ {
		if got := b.Next(lost); got != 2*time.Millisecond {
			t.Fatalf("transient delay %d = %v, want flat 2ms", i, got)
		}
	}
}

func TestBackoffNoStormAfterHealedPartition(t *testing.T) {
	// Partition window: every op times out. The pacing must (a) grow — the
	// total client-side wait over k failures is exponential in k, not k×Base,
	// so a partitioned quorum is not hammered — and (b) stay capped and reset
	// on the first post-heal success, so recovery is immediate.
	b := &Backoff{Base: time.Millisecond, Cap: 32 * time.Millisecond}
	timeout := tcpnet.ErrRoundTimeout
	var total time.Duration
	for i := 0; i < 10; i++ {
		d := b.Next(timeout)
		if d > 32*time.Millisecond {
			t.Fatalf("delay %v exceeds cap", d)
		}
		total += d
	}
	if linear := 10 * time.Millisecond; total <= linear {
		t.Fatalf("10 timeouts waited only %v — linear pacing (%v) is a retry storm", total, linear)
	}
	// Heal: one success resets the streak; the next failure pays Base again.
	b.Reset()
	if got := b.Next(timeout); got != time.Millisecond {
		t.Fatalf("post-heal delay = %v, want Base", got)
	}
}

func TestBackoffReconfigRefetchesNotWaits(t *testing.T) {
	// A wrong-epoch refusal means the membership moved on; the old config
	// never comes back, so pausing is pure stall. The caller's reaction is a
	// config refetch + immediate retry — Next must charge no delay, and the
	// refusal must not poison the degraded streak (the cluster is healthy,
	// just renumbered).
	b := &Backoff{Base: 2 * time.Millisecond, Cap: 64 * time.Millisecond}
	if got := b.Next(fmt.Errorf("mw: write: %w", &tcpnet.WrongEpochError{Epoch: 4})); got != 0 {
		t.Fatalf("reconfig delay = %v, want 0 (refetch, don't wait)", got)
	}
	if got := b.Next(tcpnet.ErrRoundTimeout); got != 2*time.Millisecond {
		t.Fatalf("post-reconfig degraded delay = %v, want Base (streak untouched)", got)
	}
}

func TestBackoffFatalGetsNoDelay(t *testing.T) {
	b := &Backoff{}
	if got := b.Next(errors.New("corrupt frame")); got != 0 {
		t.Fatalf("fatal delay = %v, want 0 (caller stops retrying)", got)
	}
}

func TestBackoffJitterSeededAndBounded(t *testing.T) {
	mk := func(seed int64) []time.Duration {
		b := &Backoff{Base: 4 * time.Millisecond, Cap: 64 * time.Millisecond, Rng: rand.New(rand.NewSource(seed))}
		var out []time.Duration
		for i := 0; i < 8; i++ {
			out = append(out, b.Next(tcpnet.ErrRoundTimeout))
		}
		return out
	}
	a, c := mk(7), mk(7)
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], c[i])
		}
	}
	// Jitter keeps each delay within (d/2, d] of the unjittered schedule.
	plain := &Backoff{Base: 4 * time.Millisecond, Cap: 64 * time.Millisecond}
	for i, got := range a {
		d := plain.Next(tcpnet.ErrRoundTimeout)
		if got < d/2 || got > d {
			t.Fatalf("jittered delay %d = %v outside (%v, %v]", i, got, d/2, d)
		}
	}
}
