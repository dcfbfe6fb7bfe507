package torture

import (
	"errors"
	"math/rand"
	"time"

	"robustatomic/internal/tcpnet"
)

// Class partitions round failures by the right retry reaction. The wire and
// runtime layers surface two very different transients: a lost connection
// (peer crashed, was kill -9'd, or sits behind a partition that reset the
// TCP stream) fails fast and is already throttled by the mux's redial
// backoff, while a round timeout (quorum unreachable or slow) burned a full
// timeout budget and signals the cluster is degraded — hammering it again
// immediately is a retry storm.
type Class int

// Failure classes.
const (
	// Transient: the operation failed fast (connection loss, in-flight
	// rounds aborted). Retry after a short fixed pause; the mux's DialBackoff
	// already rate-limits reconnection attempts underneath.
	Transient Class = iota + 1
	// Degraded: the operation waited out a round timeout — a quorum is slow
	// or unreachable. Retry under exponential backoff so a partitioned
	// cluster is not hammered, and so the moment it heals the first success
	// resets the pacing.
	Degraded
	// Reconfig: the objects refused the round because the cluster's
	// membership moved on (wrong-epoch redirect). Waiting cannot help — the
	// old configuration never comes back — and is not needed: the refusal
	// carries the newer config. The right reaction is a configuration
	// refetch (adopt the certified new membership, re-aim the transport) and
	// an immediate retry under the new epoch, so Next charges no delay.
	Reconfig
	// Fatal: not a known transient (protocol violation, closed client,
	// malformed state). Retrying cannot help.
	Fatal
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Transient:
		return "transient"
	case Degraded:
		return "degraded"
	case Reconfig:
		return "reconfig"
	case Fatal:
		return "fatal"
	}
	return "unknown"
}

// Classify maps a round error to its failure class. It unwraps, so the
// layered "retry: read round 3: %w"-style wrapping of the protocol stacks
// classifies the same as the bare sentinel.
func Classify(err error) Class {
	switch {
	case err == nil:
		return Fatal // misuse; never retry a nil error
	case errors.Is(err, tcpnet.ErrConnLost):
		return Transient
	case errors.Is(err, tcpnet.ErrRoundTimeout):
		return Degraded
	case errors.Is(err, tcpnet.ErrWrongEpoch):
		return Reconfig
	default:
		return Fatal
	}
}

// Backoff paces retries according to Classify. It is single-goroutine state
// (each client loop owns one). Degraded failures grow the delay
// exponentially from Base to Cap with seeded jitter; Transient failures pay
// a flat Base so a healed peer is reintegrated quickly; any success must
// Reset the streak.
type Backoff struct {
	Base time.Duration // first delay (default 2ms)
	Cap  time.Duration // ceiling for the exponential (default 250ms)
	Rng  *rand.Rand    // jitter source; nil = no jitter (deterministic)

	streak int // consecutive Degraded failures
}

// Next returns how long to wait before retrying after err. Fatal errors get
// no delay (the caller should stop retrying; Next returning 0 keeps misuse
// harmless).
func (b *Backoff) Next(err error) time.Duration {
	base, cap := b.Base, b.Cap
	if base <= 0 {
		base = 2 * time.Millisecond
	}
	if cap <= 0 {
		cap = 250 * time.Millisecond
	}
	switch Classify(err) {
	case Transient:
		return base
	case Degraded:
		d := base << b.streak
		if d <= 0 || d > cap { // <<= overflow guards the shift too
			d = cap
		} else {
			b.streak++
		}
		if b.Rng != nil {
			// Full jitter on the top half: d/2 + uniform(0, d/2]. Decorrelates
			// the hundreds of torture clients that all saw the same timeout.
			d = d/2 + time.Duration(b.Rng.Int63n(int64(d)/2+1))
		}
		return d
	default:
		// Reconfig and Fatal charge no delay: a Reconfig caller refetches
		// the configuration and retries immediately (backing off would only
		// stall the handoff), a Fatal caller stops retrying.
		return 0
	}
}

// Reset clears the degraded streak; call after any successful operation.
func (b *Backoff) Reset() { b.streak = 0 }
