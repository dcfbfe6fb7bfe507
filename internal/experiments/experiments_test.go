package experiments

import (
	"strings"
	"testing"
)

func TestRecurrenceTable(t *testing.T) {
	out := RecurrenceTable(6)
	if !strings.Contains(out, "t_k") {
		t.Fatalf("table header missing:\n%s", out)
	}
	// k=4 row: t_4 = 10, S = 31 (the paper's Figure 2 instance).
	if !strings.Contains(out, "   4             10             10             31") {
		t.Errorf("k=4 row wrong:\n%s", out)
	}
}

func TestMeasureComplexityMatchesPaper(t *testing.T) {
	// The E4 table must reproduce the paper's claimed round counts, except
	// where the adaptive paths BEAT them in these stable scenarios. The
	// repository's atomic registers are multi-writer, but the adaptive
	// write path recovers the SWMR-optimal 2 rounds whenever the optimistic
	// proposal certifies — which it does in every scenario measured here,
	// since E4's writes run before the Byzantine injection. Likewise the
	// adaptive read: E4's reads follow completed writes, and when the 2t+1
	// correct holders are the quorum a read hears, the fast hit decides every
	// register on the first query round and (at S = 3t+1 those 2t+1 w-reports
	// are exactly the S−t quorum) elides the write-back: 1 round. With t forgers
	// (Garbage) heard inside the quorum, only t+1 reports agree and the decision
	// round must tell: 2 rounds, the regular register's figure. The paper's
	// 4- and 3-round figures remain the WORST case, pinned by the
	// fallback round-count tests in internal/core, internal/tcpnet and
	// internal/lowerbound.
	for _, tt := range []int{1, 2} {
		rows, err := MeasureComplexity(tt)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string][2]int{
			"ABD [3]":                   {1, 2},
			"regular (GV06-style [15])": {2, 2},
			"atomic = regular + transformation (this paper §5)": {2, 2},
			"atomic, secret tokens ([8] model)":                 {2, 2},
		}
		for _, r := range rows {
			w, ok := want[r.Name]
			if !ok {
				continue
			}
			if r.WriteRounds != w[0] || r.ReadRounds != w[1] {
				t.Errorf("t=%d %s: measured %dW/%dR, paper %dW/%dR",
					tt, r.Name, r.WriteRounds, r.ReadRounds, w[0], w[1])
			}
		}
		// The retry baseline must be strictly worse than 4-round reads.
		for _, r := range rows {
			if strings.HasPrefix(r.Name, "retry") && r.ReadRounds <= 4 {
				t.Errorf("t=%d retry baseline reads in %d rounds — adversary too weak", tt, r.ReadRounds)
			}
		}
	}
}

func TestComplexityTableRenders(t *testing.T) {
	out, err := ComplexityTable(1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "atomic = regular + transformation") {
		t.Errorf("table missing rows:\n%s", out)
	}
}

func TestRetryContrast(t *testing.T) {
	for tt := 1; tt <= 3; tt++ {
		rr, opt, converged, err := RetryContrast(tt)
		if err != nil {
			t.Fatal(err)
		}
		if opt != 4 {
			t.Errorf("t=%d: optimal read rounds = %d, want 4", tt, opt)
		}
		if converged {
			t.Errorf("t=%d: retry baseline converged under perpetual staleness (rounds=%d)", tt, rr)
		}
		if rr <= 4 {
			t.Errorf("t=%d: retry rounds = %d, want > 4", tt, rr)
		}
	}
}

func TestRetryContrastTable(t *testing.T) {
	out, err := RetryContrastTable(2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "gave up") {
		t.Errorf("table should show non-convergence:\n%s", out)
	}
}
