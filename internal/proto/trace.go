// Per-operation trace attachment. A Traced rounder sits between a protocol
// handle (Writer, Reader, shard committer) and its transport: while an
// operation is being traced, every round the handle runs gets a RoundTrace
// stamped into its spec, which the runtime fills with per-object events.
package proto

import (
	"sync/atomic"

	"robustatomic/internal/obs"
)

// Traced wraps a Rounder with an attachable current-operation trace. The
// handle's own rounds are single-goroutine, but the op pointer is set and
// cleared by whoever runs the handle's operation at the time (a shard's read
// leader, its committer), so it is atomic.
type Traced struct {
	inner Rounder
	reg   int
	cur   atomic.Pointer[obs.OpTrace]
}

// Trace wraps r; reg names the register instance in the rendered trace
// (pass -1 when the handle spans instances).
func Trace(r Rounder, reg int) *Traced {
	return &Traced{inner: r, reg: reg}
}

// SetOp attaches the operation all subsequent rounds trace into (nil
// detaches).
func (t *Traced) SetOp(op *obs.OpTrace) { t.cur.Store(op) }

// Round implements Rounder.
func (t *Traced) Round(spec RoundSpec) error {
	op := t.cur.Load()
	if op == nil {
		return t.inner.Round(spec)
	}
	rt := op.StartRound(spec.Label, t.reg)
	spec.Trace = rt
	for i := range spec.Subs {
		spec.Subs[i].Trace = rt
	}
	err := t.inner.Round(spec)
	if spec.Note != nil && err == nil {
		rt.Note = spec.Note()
	}
	rt.Finish(err)
	return err
}

// NumServers implements Rounder.
func (t *Traced) NumServers() int { return t.inner.NumServers() }

var _ Rounder = (*Traced)(nil)
