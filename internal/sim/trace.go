package sim

import (
	"fmt"
	"strings"
)

// TraceEvent records an object receiving a round's request (and replying,
// per the model) — what the paper's block diagrams draw as a rectangle.
type TraceEvent struct {
	Op     string
	Round  int
	Server int
	Byz    bool // object was Byzantine at delivery time
	Late   bool // delivered after the round had terminated (a catch-up
	// delivery, not illustrated in the paper's diagrams)
}

// Trace accumulates the delivery events of a run.
type Trace struct {
	Events []TraceEvent
}

// trace appends an event if tracing is enabled.
func (s *Sim) trace(ev TraceEvent) {
	if s.cfg.Trace != nil {
		s.cfg.Trace.Events = append(s.cfg.Trace.Events, ev)
	}
}

// BlockDiagram renders the run in the style of the paper's Figures 1 and 2:
// one row per named block of objects, one column per (operation, round); a
// filled cell means every object of the block received that round's message
// (a rectangle in the paper), "@" marks blocks Byzantine at that point,
// partial receipt renders as "▪".
//
// blocks maps display names (e.g. "B1", "C2") to object ids; rows lists the
// display order.
func (tr *Trace) BlockDiagram(rows []string, blocks map[string][]int) string {
	type col struct {
		op    string
		round int
	}
	// One pass: which objects received each (op, round) on time, which were
	// Byzantine when they did, and the columns — ops in first-appearance
	// order, rounds 1..highest traced.
	type cell struct {
		col
		sid int
	}
	got, byzAt := map[cell]bool{}, map[cell]bool{}
	var ops []string
	rounds := map[string]int{}
	for _, ev := range tr.Events {
		if _, seen := rounds[ev.Op]; !seen {
			ops = append(ops, ev.Op)
		}
		rounds[ev.Op] = max(rounds[ev.Op], ev.Round)
		c := cell{col{ev.Op, ev.Round}, ev.Server}
		got[c] = got[c] || !ev.Late
		byzAt[c] = byzAt[c] || ev.Byz
	}
	var cols []col
	for _, op := range ops {
		for r := 1; r <= rounds[op]; r++ {
			cols = append(cols, col{op: op, round: r})
		}
	}
	var b strings.Builder
	// Header: operation names spanning their rounds.
	fmt.Fprintf(&b, "%-5s", "")
	for i, c := range cols {
		h := ""
		if i == 0 || cols[i-1].op != c.op {
			h = c.op
		}
		fmt.Fprintf(&b, "|%-8s", h)
	}
	b.WriteString("|\n")
	fmt.Fprintf(&b, "%-5s", "")
	for _, c := range cols {
		fmt.Fprintf(&b, "|rnd %-4d", c.round)
	}
	b.WriteString("|\n")
	for _, name := range rows {
		fmt.Fprintf(&b, "%-5s", name)
		for _, c := range cols {
			total, n, byz := len(blocks[name]), 0, false
			for _, sid := range blocks[name] {
				if got[cell{c, sid}] {
					n++
				}
				byz = byz || byzAt[cell{c, sid}]
			}
			var text string
			switch {
			case total == 0:
				text = "   --   "
			case n == total && byz:
				text = " @████  "
			case n == total:
				text = "  ████  "
			case n > 0 && byz:
				text = " @▪▪    "
			case n > 0:
				text = "  ▪▪    "
			case byz:
				text = " @      "
			default:
				text = "        "
			}
			b.WriteString("|" + text)
		}
		b.WriteString("|\n")
	}
	return b.String()
}
