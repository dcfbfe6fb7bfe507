// Sampled per-operation round traces: op id → rounds → per-object
// send/reply/error timestamps, kept in a ring buffer with failed ops
// retained separately so a chaos-test failure can dump the trace of the op
// that died next to the seed-replay command.
package obs

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ObjEvent is one per-object event inside a round: a request sent to object
// sid, a reply (or error) received from it, or a skip (object known
// unreachable). Note carries a compact payload summary — for multiplexed
// replies, which register sub-bundles the reply actually contained, which is
// exactly the information the AREAD2 flake hid.
type ObjEvent struct {
	SID  int
	Kind string // "send", "reply", "lost", "skip"
	At   time.Time
	Note string
}

// RoundTrace records one protocol round of a traced op. Events are appended
// from transport goroutines concurrently (the mux read loop) under mu.
type RoundTrace struct {
	Label string
	Reg   int // register instance index, -1 when unknown
	Start time.Time
	End   time.Time
	Err   string
	Note  string // the protocol's own remark on the round, e.g. "hit 3/3"

	mu     sync.Mutex
	Events []ObjEvent
}

// Event appends a per-object event. Safe for concurrent use.
func (rt *RoundTrace) Event(sid int, kind, note string) {
	// The nil check is split from the append so Event inlines at every
	// call site: the untraced hot path (rt == nil, the overwhelmingly
	// common case) costs one branch instead of a function call per object
	// per round.
	if rt == nil {
		return
	}
	rt.record(sid, kind, note)
}

func (rt *RoundTrace) record(sid int, kind, note string) {
	rt.mu.Lock()
	rt.Events = append(rt.Events, ObjEvent{SID: sid, Kind: kind, At: time.Now(), Note: note})
	rt.mu.Unlock()
}

// Finish stamps the round's end and error.
func (rt *RoundTrace) Finish(err error) {
	if rt == nil {
		return
	}
	rt.finish(err)
}

func (rt *RoundTrace) finish(err error) {
	rt.End = time.Now()
	if err != nil {
		rt.Err = err.Error()
	}
}

// OpTrace records one traced client operation and the rounds it ran.
type OpTrace struct {
	ID    uint64
	Name  string // "PUT", "GET", "FLUSH", ...
	Key   string
	Start time.Time
	End   time.Time
	Err   string

	mu     sync.Mutex
	Rounds []*RoundTrace
}

// StartRound opens a new round trace under this op.
func (op *OpTrace) StartRound(label string, reg int) *RoundTrace {
	rt := &RoundTrace{Label: label, Reg: reg, Start: time.Now()}
	op.mu.Lock()
	op.Rounds = append(op.Rounds, rt)
	op.mu.Unlock()
	return rt
}

// Format renders the op as an indented multi-line text block, timestamps
// relative to the op's start.
func (op *OpTrace) Format() string {
	var b strings.Builder
	rel := func(t time.Time) string {
		if t.IsZero() {
			return "?"
		}
		return fmt.Sprintf("+%dµs", t.Sub(op.Start).Microseconds())
	}
	status := "ok"
	if op.Err != "" {
		status = "ERR " + op.Err
	}
	fmt.Fprintf(&b, "op %d %s %q start=%s end=%s %s\n",
		op.ID, op.Name, op.Key, op.Start.Format("15:04:05.000000"), rel(op.End), status)
	op.mu.Lock()
	rounds := append([]*RoundTrace(nil), op.Rounds...)
	op.mu.Unlock()
	for i, rt := range rounds {
		rstatus := "ok"
		if rt.Err != "" {
			rstatus = "ERR " + rt.Err
		}
		reg := ""
		if rt.Reg >= 0 {
			reg = fmt.Sprintf(" reg=%d", rt.Reg)
		}
		if rt.Note != "" {
			rstatus += " " + rt.Note
		}
		fmt.Fprintf(&b, "  round %d %s%s start=%s end=%s %s\n",
			i+1, rt.Label, reg, rel(rt.Start), rel(rt.End), rstatus)
		rt.mu.Lock()
		events := append([]ObjEvent(nil), rt.Events...)
		rt.mu.Unlock()
		for _, ev := range events {
			note := ""
			if ev.Note != "" {
				note = " " + ev.Note
			}
			fmt.Fprintf(&b, "    s%-2d %-5s %s%s\n", ev.SID, ev.Kind, rel(ev.At), note)
		}
	}
	return b.String()
}

// failedKeep bounds the retained failed-op list (newest kept).
const failedKeep = 32

// Tracer samples client operations into a ring buffer of completed op
// traces, retaining failed ops separately. The zero sampling rate disables
// tracing entirely: StartOp returns nil and callers pay one atomic load.
type Tracer struct {
	sample atomic.Int64 // 0 = off, 1 = every op, N = one in N
	ctr    atomic.Uint64

	mu     sync.Mutex
	ring   []*OpTrace // completed ops, ring[next] is the oldest
	next   int
	failed []*OpTrace
}

// NewTracer builds a tracer retaining the last ringSize completed ops,
// sampling one op in sample (1 traces every op; 0 starts disabled).
func NewTracer(ringSize, sample int) *Tracer {
	if ringSize < 1 {
		ringSize = 1
	}
	t := &Tracer{ring: make([]*OpTrace, 0, ringSize)}
	t.sample.Store(int64(sample))
	return t
}

// SetSample changes the sampling rate (0 disables).
func (t *Tracer) SetSample(n int) { t.sample.Store(int64(n)) }

// StartOp begins tracing an operation, or returns nil when the op is
// sampled out (callers must tolerate nil).
func (t *Tracer) StartOp(name, key string) *OpTrace {
	n := t.sample.Load()
	if n <= 0 {
		return nil
	}
	id := t.ctr.Add(1)
	if n > 1 && id%uint64(n) != 0 {
		return nil
	}
	return &OpTrace{ID: id, Name: name, Key: key, Start: time.Now()}
}

// EndOp completes a traced op and files it into the ring (and the failed
// list when err is non-nil). nil op is a no-op.
func (t *Tracer) EndOp(op *OpTrace, err error) {
	if op == nil {
		return
	}
	op.End = time.Now()
	if err != nil {
		op.Err = err.Error()
	}
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, op)
	} else {
		t.ring[t.next] = op
		t.next = (t.next + 1) % cap(t.ring)
	}
	if err != nil {
		t.failed = append(t.failed, op)
		if len(t.failed) > failedKeep {
			t.failed = t.failed[len(t.failed)-failedKeep:]
		}
	}
	t.mu.Unlock()
}

// Recent returns the completed ops, oldest first.
func (t *Tracer) Recent() []*OpTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*OpTrace, 0, len(t.ring))
	for i := 0; i < len(t.ring); i++ {
		out = append(out, t.ring[(t.next+i)%len(t.ring)])
	}
	return out
}

// Failed returns the retained failed ops, oldest first.
func (t *Tracer) Failed() []*OpTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*OpTrace(nil), t.failed...)
}

// FormatFailed renders every retained failed op — the dump-on-failure
// payload the torture harness and chaos tests print next to the
// seed-replay command.
func (t *Tracer) FormatFailed() string {
	failed := t.Failed()
	if len(failed) == 0 {
		return "(no failed-op traces captured)\n"
	}
	var b strings.Builder
	for _, op := range failed {
		b.WriteString(op.Format())
	}
	return b.String()
}
