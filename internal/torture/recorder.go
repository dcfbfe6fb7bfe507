package torture

import (
	"fmt"
	"sort"
	"sync"

	"robustatomic/internal/checker"
	"robustatomic/internal/types"
)

// recorder keeps one checker.History per key; each history's own clock
// orders its key's invocations and responses as they happen, which is all
// the per-key atomicity check looks at.
type recorder struct {
	mu    sync.Mutex
	hists map[string]*checker.History
}

// recID names one recorded operation: its key's history and its id there.
type recID struct {
	h  *checker.History
	id int
}

// invoke records an operation start.
func (r *recorder) invoke(key string, client types.ProcID, kind checker.OpKind, arg types.Value) recID {
	r.mu.Lock()
	if r.hists == nil {
		r.hists = map[string]*checker.History{}
	}
	h := r.hists[key]
	if h == nil {
		h = &checker.History{}
		r.hists[key] = h
	}
	r.mu.Unlock()
	return recID{h, h.Invoke(client, kind, arg)}
}

// respond completes the operation with its result (returned value for reads).
func (r *recorder) respond(op recID, ret types.Value) { op.h.Respond(op.id, ret) }

// abandon leaves a failed operation pending forever, on a client of its own
// (checker.History.Abandon): the client goroutine goes on with its next
// operation, and the failed one may still take effect — the process's next
// write finishes the pair it left open, which can land it arbitrarily late.
func (r *recorder) abandon(op recID) { op.h.Abandon(op.id) }

// histories returns the per-key histories.
func (r *recorder) histories() map[string]*checker.History {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hists
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
