package shard

import "sync"

// Group is the leader-handoff group commit: concurrent callers' jobs collect
// into batches, exactly one batch runs at a time, and the one batch that
// accumulated while it ran is run next by one of its own members. The
// Store's per-shard Puts/Deletes and Gets, proto.Combiner's cross-shard
// rounds and persist's FsyncAlways appends are all this one mechanism. What
// it guarantees:
//
//   - a job joins its batch strictly BEFORE the batch's leader detaches it
//     (both under mu), so run starts after every member's Do began and ends
//     before any member's Do returns — the batch executes inside every
//     member's call interval (what makes a shared Get linearizable);
//   - a caller leads at most one batch per Do, and only one containing its
//     own job (so leading is bounded work done on the caller's own behalf);
//   - exactly one run executes at a time, and the handoff token orders
//     consecutive runs (state a run leaves is visible to the next);
//   - a run's result and error reach every member of its batch.
//
// The zero value is an idle group.
type Group[J, R any] struct {
	// Wait, when non-nil, is called by a follower about to block and returns
	// once done is closed or lead holds the token: the one place Do blocks,
	// handed to a scheduler that runs one goroutine at a time (internal/sim).
	// Nil in production.
	Wait func(done, lead <-chan struct{})

	mu      sync.Mutex
	running bool              // a leader is between detaching its batch and handing off
	pending *groupBatch[J, R] // the batch awaiting a leader; nil when there is none
}

type groupBatch[J, R any] struct {
	jobs []J
	done chan struct{} // closed once res and err are set
	lead chan struct{} // capacity 1: the handoff token making its receiver the leader
	res  R
	err  error
}

// Do adds job to the pending batch, opening it if there is none, and returns
// once that batch has run, with the run's result; led reports whether this
// caller ran it. run is invoked with the batch's jobs in arrival order, by at
// most one caller at a time.
func (g *Group[J, R]) Do(job J, run func([]J) (R, error)) (res R, led bool, err error) {
	g.mu.Lock()
	b := g.pending
	if b == nil {
		b = &groupBatch[J, R]{done: make(chan struct{}), lead: make(chan struct{}, 1)}
		g.pending = b
	}
	b.jobs = append(b.jobs, job)
	if g.running {
		// A leader is running. Wait for our batch's result — unless the
		// leader hands this batch off, making us the next leader.
		g.mu.Unlock()
		if g.Wait != nil {
			g.Wait(b.done, b.lead)
		}
		select {
		case <-b.done:
			return b.res, false, b.err
		case <-b.lead:
			g.mu.Lock()
		}
	}
	// Leader of the pending batch (idle: the one just opened; handed off: the
	// one the token was sent to). Detach it, so later jobs open the next.
	g.running, g.pending = true, nil
	g.mu.Unlock()
	b.res, b.err = run(b.jobs)
	close(b.done)
	g.mu.Lock()
	if g.pending != nil {
		g.pending.lead <- struct{}{}
	} else {
		g.running = false
	}
	g.mu.Unlock()
	return b.res, true, b.err
}

// Pending snapshots the jobs of the batch awaiting a leader (tests wait on it
// to know a job has joined before releasing a run).
func (g *Group[J, R]) Pending() []J {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.pending == nil {
		return nil
	}
	return append([]J(nil), g.pending.jobs...)
}
