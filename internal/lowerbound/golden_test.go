package lowerbound_test

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"robustatomic/internal/experiments"
	"robustatomic/internal/lowerbound"
)

// TestProofOutputGolden pins the paper's proofs as executed: the complete
// stdout of cmd/lbproof and cmd/roundtable (default flags), rendered here
// the way those commands print it, against fixtures generated at 0862cdf —
// the last commit on which the simulator ran its own object step and its
// own round loop. Every run, every round of every block diagram, every
// value an appended read returned, the violation and the measured round
// counts must be what they were; a proof that moves is fixed in the
// schedule (deliver what the proof says), never by forking the engine.
//
// One number moved, and the fixture is read with that declared: E4's three
// Byzantine-tolerant rows read in 2 rounds, not 1. The table claims the worst
// case over t lying objects; 0862cdf's delivery loop integrated a directive's
// whole batch — all S replies — into a round the model ends at S − t, so its
// liars never cost a read its first-round decision. Heard inside the quorum
// (the first S − t objects answer, t of them lying) they cost the decision
// round, and 0862cdf itself measures 2 under that schedule (Step(rd, 1..S−t)
// in place of RunOp). E4 now runs each faulty scenario with the liars heard
// first and heard last.
func TestProofOutputGolden(t *testing.T) {
	var lb bytes.Buffer
	fmt.Fprintf(&lb, "Proposition 1 (Figure 1): no 2-round reads with S = %d ≤ 4t, t = %d, R = 4\n", 4, 1)
	fmt.Fprintf(&lb, "victim: %s 2-round-write/2-round-read register\n\n", "cautious")
	rb := &lowerbound.ReadBound{T: 1, Victim: lowerbound.FixedVictim{K: 2, R: 2}, Render: true}
	out, err := rb.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range out.Reports {
		fmt.Fprintf(&lb, "── run %s (appended read returned %s) ──\n", rep.Name, rep.ReadValue)
		if rep.Diagram != "" {
			fmt.Fprintln(&lb, rep.Diagram)
		}
	}
	fmt.Fprintf(&lb, "indistinguishability claims verified mechanically: %d\n\n", out.IndistinguishabilityChecks)
	fmt.Fprintf(&lb, "VIOLATION exhibited in run %s:\n  %v\n", out.Run, out.Violation)
	compareGolden(t, "testdata/lbproof_0862cdf.txt", lb.Bytes())

	var rt bytes.Buffer
	fmt.Fprintln(&rt, experiments.RecurrenceTable(12))
	tbl, err := experiments.ComplexityTable(2)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&rt, tbl)
	contrast, err := experiments.RetryContrastTable(4)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&rt, contrast)
	compareGolden(t, "testdata/roundtable_0862cdf.txt", rt.Bytes(), [][2]string{
		{"regular (GV06-style [15])", "Byzantine, unauthenticated, S=3t+1"},
		{"atomic = regular + transformation (this paper §5)", "Byzantine, unauthenticated, S=3t+1"},
		{"atomic, secret tokens ([8] model)", "Byzantine, secret values, S=3t+1"},
	}...)
}

// compareGolden compares got with the fixture at path, in which each of the
// E4 rows named by moved (name, model) reads 2 rounds where the fixture says 1.
func compareGolden(t *testing.T, path string, got []byte, moved ...[2]string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range moved {
		row := func(read int) []byte { return []byte(fmt.Sprintf("%-52s %-38s %6d %6d\n", m[0], m[1], 2, read)) }
		if !bytes.Contains(want, row(1)) {
			t.Fatalf("%s: no row %q reading 1 round", path, m[0])
		}
		want = bytes.Replace(want, row(1), row(2), 1)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output moved\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
