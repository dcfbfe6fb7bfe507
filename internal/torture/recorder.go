package torture

import (
	"fmt"
	"sort"
	"sync"

	"robustatomic/internal/checker"
	"robustatomic/internal/types"
)

// ghostBase offsets the writer indices of ghost clients (see abandon) far
// above any real client identity.
const ghostBase = 1 << 20

// recorder captures every client operation across all keys under one global
// logical clock, then projects per-key checker histories. It exists because
// checker.History assigns clocks at Invoke/Respond call time: a failed
// operation must be RE-TAGGED to a fresh client identity after the fact
// (see abandon), which the History API cannot do in place.
type recorder struct {
	mu  sync.Mutex
	seq int64
	ops []recOp
}

type recOp struct {
	key     string
	client  types.ProcID
	kind    checker.OpKind
	arg     types.Value
	ret     types.Value
	invoke  int64
	respond int64 // -1 while pending
}

// invoke records an operation start and returns its id.
func (r *recorder) invoke(key string, client types.ProcID, kind checker.OpKind, arg types.Value) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	r.ops = append(r.ops, recOp{
		key: key, client: client, kind: kind, arg: arg,
		invoke: r.seq, respond: -1,
	})
	return len(r.ops) - 1
}

// respond completes operation id with its result (returned value for reads).
func (r *recorder) respond(id int, ret types.Value) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	r.ops[id].respond = r.seq
	r.ops[id].ret = ret
}

// abandon marks a failed operation as pending forever and moves it to its
// own single-op ghost client. The client goroutine continues with its next
// operation; had the failed op stayed on the client's queue, the history
// would violate per-client sequentiality (the checker's queues must be
// sequential threads). Re-tagging is exact, not a weakening: linearizability
// constrains operations only by real-time precedence, and a never-responding
// operation precedes nothing — a singleton queue encodes precisely the
// constraints the op still carries (it may take effect at any point after
// its invocation, or never; the process's next write finishes the pair it
// left open, which can land it arbitrarily late).
func (r *recorder) abandon(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops[id].client = types.WriterID(ghostBase + id)
}

// histories projects the record into one checker.History per key, replaying
// invokes and responds in global clock order so the checker sees the true
// real-time precedence.
func (r *recorder) histories() map[string]*checker.History {
	r.mu.Lock()
	ops := make([]recOp, len(r.ops))
	copy(ops, r.ops)
	r.mu.Unlock()

	type event struct {
		seq     int64
		op      int
		respond bool
	}
	events := make([]event, 0, 2*len(ops))
	for i, op := range ops {
		events = append(events, event{seq: op.invoke, op: i})
		if op.respond >= 0 {
			events = append(events, event{seq: op.respond, op: i, respond: true})
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].seq < events[j].seq })

	hists := make(map[string]*checker.History)
	ids := make([]int, len(ops))
	for _, ev := range events {
		op := ops[ev.op]
		h := hists[op.key]
		if h == nil {
			h = &checker.History{}
			hists[op.key] = h
		}
		if ev.respond {
			h.Respond(ids[ev.op], op.ret)
		} else {
			ids[ev.op] = h.Invoke(op.client, op.kind, op.arg)
		}
	}
	return hists
}

// checkAll runs the budgeted multi-writer atomicity check on every per-key
// history, returning the first failure (with its key) and counting checked
// operations.
func checkAll(hists map[string]*checker.History, budget checker.Budget) (opsChecked int, err error) {
	keys := make([]string, 0, len(hists))
	for k := range hists {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic failure order
	for _, k := range keys {
		h := hists[k]
		opsChecked += h.Len()
		if cerr := checker.CheckAtomicMWBudget(h, budget); cerr != nil {
			return opsChecked, fmt.Errorf("key %q: %w\nhistory (%d ops):\n%s", k, cerr, h.Len(), dumpOps(h))
		}
	}
	return opsChecked, nil
}

// dumpOps renders a history for failure output, capped so a torture-scale
// history does not flood the log.
func dumpOps(h *checker.History) string {
	const maxDump = 64
	out := ""
	for i, op := range h.Ops() {
		if i == maxDump {
			out += fmt.Sprintf("  … %d more\n", h.Len()-maxDump)
			break
		}
		out += "  " + op.String() + "\n"
	}
	return out
}
