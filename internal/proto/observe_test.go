package proto

import (
	"errors"
	"testing"

	"robustatomic/internal/obs"
)

// failing runs every round; a round labelled "LOST" fails.
type failing struct{ traces []*obs.RoundTrace }

func (f *failing) Round(spec RoundSpec) error {
	f.traces = append(f.traces, spec.Trace)
	if spec.Label == "LOST" {
		return errors.New("lost")
	}
	return nil
}

func (f *failing) NumServers() int { return 4 }

// TestObservedCountsHooksAndTraces: one observer counts every round under
// its label, hooks the successful ones, and traces exactly the rounds run
// inside an operation the tracer sampled.
func TestObservedCountsHooksAndTraces(t *testing.T) {
	count := func(name, label string) int64 {
		return obs.Default.Counter(name + `{transport="mux",label="` + label + `"}`).Value()
	}
	rounds, errs := count("proto_rounds_total", "LOST"), count("proto_round_errors_total", "LOST")
	okRounds := count("proto_rounds_total", "OBSERVED")
	var hooked []string
	inner := &failing{}
	tr := obs.NewTracer(4, 1)
	o := Observe(inner, 7, func(l string) { hooked = append(hooked, l) }, tr)

	_ = o.Round(RoundSpec{Label: "OBSERVED"}) // outside any op: untraced
	end := o.Op("FLUSH", "%d ops", 2)
	_ = o.Round(RoundSpec{Label: "OBSERVED", Note: func() string { return "hit" }})
	err := o.Round(RoundSpec{Label: "LOST"})
	end(err)

	if got := count("proto_rounds_total", "OBSERVED") - okRounds; got != 2 {
		t.Errorf("OBSERVED rounds counted %d, want 2", got)
	}
	if r, e := count("proto_rounds_total", "LOST")-rounds, count("proto_round_errors_total", "LOST")-errs; r != 1 || e != 1 {
		t.Errorf("LOST rounds/errors counted %d/%d, want 1/1", r, e)
	}
	if len(hooked) != 2 || hooked[0] != "OBSERVED" || hooked[1] != "OBSERVED" {
		t.Errorf("hook saw %q, want the two successful rounds", hooked)
	}
	if inner.traces[0] != nil || inner.traces[1] == nil || inner.traces[2] == nil {
		t.Errorf("rounds traced %v, want the two inside the op", inner.traces)
	}
	ops := tr.Recent()
	if len(ops) != 1 || ops[0].Key != "2 ops" || ops[0].Err != "lost" || len(ops[0].Rounds) != 2 {
		t.Fatalf("traced ops %+v, want one failed FLUSH %q of 2 rounds", ops, "2 ops")
	}
	if r := ops[0].Rounds[0]; r.Label != "OBSERVED" || r.Reg != 7 || r.Note != "hit" || r.Err != "" {
		t.Errorf("first traced round %+v", r)
	}
	if r := ops[0].Rounds[1]; r.Label != "LOST" || r.Err != "lost" {
		t.Errorf("second traced round %+v", r)
	}

	// An operation the tracer samples out leaves the rounds untraced.
	tr.SetSample(0)
	end = o.Op("GET", "shard %d", 1)
	_ = o.Round(RoundSpec{Label: "OBSERVED"})
	end(nil)
	if inner.traces[3] != nil || len(tr.Recent()) != 1 {
		t.Error("a sampled-out operation was traced")
	}
}
