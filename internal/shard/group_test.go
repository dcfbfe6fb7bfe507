package shard

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedGroup drives a Group[int, int] whose runs record their batch, wait for
// one token on gate, and return the batch's first job (and err, if set).
type gatedGroup struct {
	g    *Group[int, int]
	gate chan struct{}
	err  error

	mu      sync.Mutex
	batches [][]int
	leaders []int // leaders[i]: the job of the caller that ran batches[i]
}

func newGatedGroup() *gatedGroup {
	return &gatedGroup{g: &Group[int, int]{}, gate: make(chan struct{})}
}

type groupResult struct {
	job, res int
	led      bool
	err      error
}

// do submits job from a new goroutine and delivers its outcome on out.
func (gg *gatedGroup) do(job int, out chan<- groupResult) {
	go func() {
		res, led, err := gg.g.Do(job, func(batch []int) (int, error) {
			gg.mu.Lock()
			gg.batches = append(gg.batches, append([]int(nil), batch...))
			gg.leaders = append(gg.leaders, job)
			gg.mu.Unlock()
			<-gg.gate
			return batch[0], gg.err
		})
		out <- groupResult{job, res, led, err}
	}()
}

func (gg *gatedGroup) ran() int {
	gg.mu.Lock()
	defer gg.mu.Unlock()
	return len(gg.batches)
}

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

// submit queues jobs one at a time behind a running batch, waiting for each
// to show up in the pending batch before submitting the next.
func (gg *gatedGroup) submit(t *testing.T, out chan<- groupResult, jobs ...int) {
	t.Helper()
	for _, job := range jobs {
		want := len(gg.g.Pending()) + 1
		gg.do(job, out)
		waitFor(t, "job to join the pending batch", func() bool { return len(gg.g.Pending()) == want })
	}
}

// TestGroupArrivalsFormOneNextBatch: jobs that arrive while a batch runs
// form ONE next batch, in arrival order, led by one of its own members, and
// every job runs in exactly one batch.
func TestGroupArrivalsFormOneNextBatch(t *testing.T) {
	gg := newGatedGroup()
	out := make(chan groupResult, 5)
	gg.do(1, out)
	waitFor(t, "first batch to start", func() bool { return gg.ran() == 1 })
	gg.submit(t, out, 2, 3, 4, 5)
	if p := gg.g.Pending(); !reflect.DeepEqual(p, []int{2, 3, 4, 5}) {
		t.Fatalf("pending = %v, want one batch [2 3 4 5]", p)
	}
	gg.gate <- struct{}{}
	gg.gate <- struct{}{}
	leaders := 0
	for i := 0; i < 5; i++ {
		r := <-out
		want := 2
		if r.job == 1 {
			want = 1
		}
		if r.err != nil || r.res != want {
			t.Errorf("job %d = %d, %v; want %d", r.job, r.res, r.err, want)
		}
		if r.led {
			leaders++
		}
	}
	if want := [][]int{{1}, {2, 3, 4, 5}}; !reflect.DeepEqual(gg.batches, want) {
		t.Fatalf("batches = %v, want %v", gg.batches, want)
	}
	if l := gg.leaders[1]; l < 2 || l > 5 {
		t.Errorf("second batch led by job %d, not one of its members", l)
	}
	if leaders != 2 {
		t.Errorf("%d callers report having led, want 2 (one per batch)", leaders)
	}
}

// TestGroupErrorReachesEveryMember: the leader's result and error reach every
// member of its batch — and no member of another — and the group is idle and
// reusable afterwards.
func TestGroupErrorReachesEveryMember(t *testing.T) {
	errBoom := errors.New("boom")
	gg := newGatedGroup()
	out := make(chan groupResult, 4)
	gg.do(1, out)
	waitFor(t, "first batch to start", func() bool { return gg.ran() == 1 })
	gg.submit(t, out, 2, 3, 4)
	gg.gate <- struct{}{}
	if r := <-out; r.job != 1 || r.err != nil || !r.led {
		t.Fatalf("first batch's only member = %+v, want job 1, no error, led", r)
	}
	waitFor(t, "second batch to start", func() bool { return gg.ran() == 2 })
	gg.err = errBoom // read by the running leader after the gate send below
	gg.gate <- struct{}{}
	for i := 0; i < 3; i++ {
		if r := <-out; !errors.Is(r.err, errBoom) || r.res != 2 {
			t.Errorf("job %d = %d, %v; want 2, boom", r.job, r.res, r.err)
		}
	}
	if p := gg.g.Pending(); len(p) != 0 {
		t.Fatalf("group not idle after an errored batch: pending %v", p)
	}
	gg.err = nil
	gg.do(9, out)
	gg.gate <- struct{}{}
	if r := <-out; r.err != nil || r.res != 9 || !r.led {
		t.Fatalf("job after the errored batch = %+v, want 9, no error, led", r)
	}
}

// TestGroupStress: 64 goroutines × 2,000 jobs (run with -race). Never two
// batches at once, every job in exactly one batch, every caller handed its own
// batch's result, at most one batch led per Do and only one containing the
// caller's job.
func TestGroupStress(t *testing.T) {
	const workers, perWorker = 64, 2000
	// The arm's name is kept from when the test also ran under an admission
	// predicate; every job is admitted to the open batch.
	t.Run("admit-all", func(t *testing.T) {
		g := &Group[int, int]{}
		var running, batches atomic.Int32
		seen := make([]int, workers*perWorker) // written only inside run: one run at a time
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					job := w*perWorker + i
					ran := false
					res, led, err := g.Do(job, func(batch []int) (int, error) {
						if running.Add(1) != 1 {
							t.Error("two batches running at once")
						}
						mine := false
						for _, j := range batch {
							seen[j]++
							mine = mine || j == job
						}
						if !mine || ran {
							t.Errorf("job %d led a batch it is not in, or a second batch", job)
						}
						ran = true
						running.Add(-1)
						return int(batches.Add(1)), nil
					})
					if err != nil || res < 1 || led != ran {
						t.Errorf("job %d = %d, led %v (ran %v), %v", job, res, led, ran, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for j, n := range seen {
			if n != 1 {
				t.Fatalf("job %d ran in %d batches, want exactly 1", j, n)
			}
		}
		if p := g.Pending(); len(p) != 0 {
			t.Fatalf("group not idle: pending %v", p)
		}
		t.Logf("%d jobs in %d batches", workers*perWorker, batches.Load())
	})
}
