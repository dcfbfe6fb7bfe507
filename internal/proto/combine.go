// Cross-register round coalescing.
//
// The Store's group commit merges concurrent mutations of ONE shard into one
// flush; the Combiner puts the same mechanism (shard.Group) across shards:
// concurrent rounds for different register instances — each shard committer
// flushing its own register — merge into one batched RoundSpec, which the
// mux ships as one frame per object instead of one frame per shard. Under
// fan-in load this turns N shards' worth of per-daemon frames into one.
package proto

import (
	"fmt"
	"sync/atomic"

	"robustatomic/internal/obs"
	"robustatomic/internal/shard"
)

// mBatchSubs distributes the sub-round counts of merged rounds: how much
// cross-shard coalescing the leader-handoff actually achieves under load.
// Sampled 1-in-8 (batchSubsTick): a histogram record touches a ~15KB bucket
// array under a mutex, too much for every merged round on the pipelined
// write path.
var (
	mBatchSubs    = obs.Default.Hist("proto_combine_batch_subs")
	batchSubsTick atomic.Uint64
)

// Combiner merges concurrent single-register rounds into batched rounds on
// an inner Rounder that accepts RoundSpec.Subs (tcpnet.Client).
// Safe for concurrent use; the inner Rounder is only ever driven by one
// goroutine at a time (the current batch leader).
type Combiner struct {
	inner Rounder
	// group batches the sub-rounds. Reply bundles are routed by instance, so
	// a batch must hold at most one sub-round per instance: each instance has
	// one writer per process, and it runs one round at a time (see Rounder).
	group shard.Group[SubRound, struct{}]
}

// NewCombiner returns a Combiner batching rounds onto inner.
func NewCombiner(inner Rounder) *Combiner {
	return &Combiner{inner: inner}
}

// SetWait installs the group's Wait hook (shard.Group.Wait; nil in
// production). Call it before the first round.
func (c *Combiner) SetWait(wait func(done, lead <-chan struct{})) { c.group.Wait = wait }

// Rounder returns a per-register-instance view of the combiner: a Rounder
// whose rounds target instance reg and merge with concurrent rounds of
// other instances. The view is cheap; make one per handle, and run one round
// at a time on each instance.
func (c *Combiner) Rounder(reg int) Rounder {
	return &combinedRounder{c: c, reg: reg}
}

type combinedRounder struct {
	c   *Combiner
	reg int
}

// NumServers implements Rounder.
func (r *combinedRounder) NumServers() int { return r.c.inner.NumServers() }

// Round implements Rounder: spec rides the next merged round.
func (r *combinedRounder) Round(spec RoundSpec) error {
	if len(spec.Subs) > 0 {
		return fmt.Errorf("proto: combiner: batched specs cannot be re-batched (round %s)", spec.Label)
	}
	sub := SubRound{Reg: r.reg, Label: spec.Label, Req: spec.Req, Full: spec.Full, Acc: spec.Acc, Trace: spec.Trace}
	_, _, err := r.c.group.Do(sub, func(subs []SubRound) (struct{}, error) {
		return struct{}{}, r.c.inner.Round(mergedSpec(subs))
	})
	// The accumulators are monotone, so a satisfied sub-round genuinely
	// completed even if the merged round as a whole errored (say, a sibling's
	// quorum timed out) — only unsatisfied sub-rounds inherit the error.
	if err != nil && sub.Acc.Done() {
		return nil
	}
	return err
}

// mergedSpec builds the batched spec for one batch.
func mergedSpec(subs []SubRound) RoundSpec {
	if batchSubsTick.Add(1)%8 == 0 {
		mBatchSubs.Record(int64(len(subs)))
	}
	label := subs[0].Label
	if len(subs) > 1 {
		label = fmt.Sprintf("BATCH(%d:%s+%d)", len(subs), label, len(subs)-1)
	}
	return RoundSpec{Label: label, Subs: subs}
}

var _ Rounder = (*combinedRounder)(nil)
