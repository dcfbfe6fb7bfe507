// Cross-register round coalescing.
//
// The Store's group commit already merges concurrent mutations of ONE shard
// into one flush; the Combiner extends the same leader-handoff idea across
// shards: concurrent rounds for different register instances — each shard
// committer flushing its own register — merge into one batched RoundSpec,
// which the batch-capable runtimes ship as one frame per object instead of
// one frame per shard. Under fan-in load this turns N shards' worth of
// per-daemon frames into one.
package proto

import (
	"fmt"
	"sync"
	"sync/atomic"

	"robustatomic/internal/obs"
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

	mu      sync.Mutex
	running bool
	// pending holds batches awaiting a leader, in arrival order. A batch
	// never holds two sub-rounds for the same register instance (reply
	// bundles are routed by instance): a second round for an occupied
	// instance opens the next batch.
	pending []*combineBatch
}

// NewCombiner returns a Combiner batching rounds onto inner.
func NewCombiner(inner Rounder) *Combiner {
	return &Combiner{inner: inner}
}

// NumServers returns S of the inner rounder.
func (c *Combiner) NumServers() int { return c.inner.NumServers() }

// Rounder returns a per-register-instance view of the combiner: a Rounder
// whose rounds target instance reg and merge with concurrent rounds of
// other instances. The view is cheap; make one per handle.
func (c *Combiner) Rounder(reg int) Rounder {
	return &combinedRounder{c: c, reg: reg}
}

type combinedRounder struct {
	c   *Combiner
	reg int
}

// Round implements Rounder.
func (r *combinedRounder) Round(spec RoundSpec) error {
	return r.c.round(r.reg, spec)
}

// NumServers implements Rounder.
func (r *combinedRounder) NumServers() int { return r.c.NumServers() }

type combineBatch struct {
	subs []SubRound
	regs map[int]bool
	// done is closed by the batch's leader after the merged round returns.
	done chan struct{}
	// lead (capacity 1) receives the leadership token: whichever of the
	// batch's waiters picks it up runs the merged round for everyone.
	lead chan struct{}
	err  error
}

func newCombineBatch() *combineBatch {
	return &combineBatch{
		regs: make(map[int]bool),
		done: make(chan struct{}),
		lead: make(chan struct{}, 1),
	}
}

func (c *Combiner) round(reg int, spec RoundSpec) error {
	if len(spec.Subs) > 0 {
		return fmt.Errorf("proto: combiner: batched specs cannot be re-batched (round %s)", spec.Label)
	}
	sub := SubRound{Reg: reg, Label: spec.Label, Req: spec.Req, Acc: spec.Acc, Trace: spec.Trace}
	c.mu.Lock()
	var b *combineBatch
	for _, pb := range c.pending {
		if !pb.regs[reg] {
			b = pb
			break
		}
	}
	if b == nil {
		b = newCombineBatch()
		c.pending = append(c.pending, b)
	}
	b.subs = append(b.subs, sub)
	b.regs[reg] = true
	if c.running {
		c.mu.Unlock()
		select {
		case <-b.done:
			return finished(b, sub)
		case <-b.lead:
			c.mu.Lock()
		}
	} else {
		// No round in flight: this caller leads its (necessarily sole and
		// fresh) batch immediately.
		c.running = true
	}
	// Leader: detach the batch from the queue, run the merged round, then
	// hand leadership to the next batch (one of its waiters wakes up) or go
	// idle.
	for i, pb := range c.pending {
		if pb == b {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
	b.err = c.inner.Round(mergedSpec(b))
	close(b.done)
	c.mu.Lock()
	if len(c.pending) > 0 {
		c.pending[0].lead <- struct{}{}
	} else {
		c.running = false
	}
	c.mu.Unlock()
	return finished(b, sub)
}

// finished maps the merged round's outcome back to one waiter. The
// accumulators are monotone, so a satisfied sub-round genuinely completed
// even if the merged round as a whole errored (say, a sibling's quorum
// timed out) — only unsatisfied sub-rounds inherit the error.
func finished(b *combineBatch, sub SubRound) error {
	if b.err == nil || sub.Acc.Done() {
		return nil
	}
	return b.err
}

// mergedSpec builds the batched spec for one batch.
func mergedSpec(b *combineBatch) RoundSpec {
	if batchSubsTick.Add(1)%8 == 0 {
		mBatchSubs.Record(int64(len(b.subs)))
	}
	label := b.subs[0].Label
	if len(b.subs) > 1 {
		label = fmt.Sprintf("BATCH(%d:%s+%d)", len(b.subs), label, len(b.subs)-1)
	}
	return RoundSpec{Label: label, Subs: b.subs}
}

var _ Rounder = (*combinedRounder)(nil)
