// The round observer. Every round a client handle runs passes through one
// Observed, above the Combiner, so each instrument sees the handle's logical
// round under its own label — a Store flush's PREWRITE is a PREWRITE, whether
// it travelled alone or inside another leader's merged frame.
package proto

import (
	"fmt"
	"sync/atomic"

	"robustatomic/internal/obs"
)

// Observed is the one decorator between a protocol handle (Writer, Reader,
// shard committer) and its round executor. Per round it updates the
// per-label round metrics (obs.RoundStats, transport "mux"), calls the hook
// once the round succeeded, and — while the handle runs an operation the
// tracer sampled (Op) — stamps a RoundTrace into the spec, which the runtime
// fills with per-object events. A round's latency is what the handle paid,
// its wait for a Combiner batch included.
//
// The handle's rounds run one at a time, but not always on one goroutine
// (a shard's read leader, its committer): the group commit that hands the
// handle on orders them, and the op pointer is atomic besides.
type Observed struct {
	inner  Rounder
	reg    int
	hook   func(label string)
	tracer *obs.Tracer
	stats  obs.StatsCache
	cur    atomic.Pointer[obs.OpTrace]
}

// Observe wraps r. reg names the register instance in rendered traces; hook
// (nil: none) runs with the round's label after every round that succeeded,
// on the goroutine that ran it; tracer (nil: none) samples the operations Op
// brackets.
func Observe(r Rounder, reg int, hook func(label string), tracer *obs.Tracer) *Observed {
	return &Observed{inner: r, reg: reg, hook: hook, tracer: tracer}
}

// Op brackets one operation (FLUSH, GET) for the tracer: if it samples the
// operation, every round until the returned function is called lands on the
// operation's trace, keyed fmt.Sprintf(format, n), and that call files it
// with its outcome. An operation nobody samples costs one atomic load.
func (o *Observed) Op(kind, format string, n int) func(error) {
	if o.tracer == nil {
		return func(error) {}
	}
	op := o.tracer.StartOp(kind, "")
	if op == nil {
		return func(error) {}
	}
	op.Key = fmt.Sprintf(format, n)
	o.cur.Store(op)
	return func(err error) {
		o.cur.Store(nil)
		o.tracer.EndOp(op, err)
	}
}

// Round implements Rounder.
func (o *Observed) Round(spec RoundSpec) error {
	st := o.stats.Get(obs.Default, "mux", spec.Label)
	begun := st.Begin()
	var rt *obs.RoundTrace
	if op := o.cur.Load(); op != nil {
		rt = op.StartRound(spec.Label, o.reg)
		spec.Trace = rt
	}
	err := o.inner.Round(spec)
	st.Done(begun, err)
	if rt != nil {
		if spec.Note != nil && err == nil {
			rt.Note = spec.Note()
		}
		rt.Finish(err)
	}
	if err == nil && o.hook != nil {
		o.hook(spec.Label)
	}
	return err
}

// NumServers implements Rounder.
func (o *Observed) NumServers() int { return o.inner.NumServers() }

var _ Rounder = (*Observed)(nil)
