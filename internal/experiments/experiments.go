// Package experiments implements the paper-reproduction experiment suite
// (DESIGN.md, Section 4): each experiment regenerates one of the paper's
// artifacts — the lower-bound figures, the recurrence table, the Section 5
// round-complexity table, the resilience boundaries and the Ω(t)-vs-O(1)
// read-latency contrast. cmd/roundtable and cmd/lbproof print them;
// bench_test.go measures them.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"robustatomic/internal/abd"
	"robustatomic/internal/checker"
	"robustatomic/internal/core"
	"robustatomic/internal/quorum"
	"robustatomic/internal/recurrence"
	"robustatomic/internal/regular"
	"robustatomic/internal/retry"
	"robustatomic/internal/secret"
	"robustatomic/internal/server"
	"robustatomic/internal/sim"
	"robustatomic/internal/types"
)

// RecurrenceTable renders experiment E3: the t_k recurrence of Lemma 1, its
// closed form, and the log write-round bound of Lemma 2, for k = 1..kMax.
func RecurrenceTable(kMax int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E3 — Lemma 1 recurrence t_k = t_{k-1} + 2·t_{k-2} + 1 and Lemma 2 closed form\n")
	fmt.Fprintf(&b, "%4s %14s %14s %14s %18s\n", "k", "t_k (recur.)", "t_k (closed)", "S = 3t_k+1", "⌊log₂⌈(3t+1)/2⌉⌋")
	for _, row := range recurrence.Table(kMax) {
		fmt.Fprintf(&b, "%4d %14d %14d %14d %18d\n", row.K, row.T, row.TClosed, row.S, row.KMax)
	}
	return b.String()
}

// ComplexityRow is one line of the E4 round-complexity table.
type ComplexityRow struct {
	Name        string
	Model       string
	WriteRounds int
	ReadRounds  int
	Notes       string
}

// protocolHarness adapts one register implementation to the measurement
// loop.
type protocolHarness struct {
	name  string
	model string
	notes string
	// write returns an OpFunc writing pair i (timestamps thread through ts).
	write func(th quorum.Thresholds, i int) sim.OpFunc
	read  func(th quorum.Thresholds) sim.OpFunc
}

func harnesses(rng *rand.Rand) []protocolHarness {
	readerSeqs := map[int]int64{}
	secretSeqs := map[int]int64{}
	return []protocolHarness{
		{
			name: "ABD [3]", model: "crash-only, S=2F+1",
			notes: "1985 baseline; Byzantine objects break it (see TestByzantineBreaksABD)",
			write: func(th quorum.Thresholds, i int) sim.OpFunc {
				return func(c *sim.Client) (types.Value, error) {
					cfg := abd.Config{S: th.S, F: th.T}
					w := abd.NewWriterAt(c, cfg, types.At(int64(i-1)))
					return types.Bottom, w.Write(types.Value(fmt.Sprintf("v%d", i)))
				}
			},
			read: func(th quorum.Thresholds) sim.OpFunc {
				return func(c *sim.Client) (types.Value, error) {
					return abd.NewReader(c, abd.Config{S: th.S, F: th.T}).Read()
				}
			},
		},
		{
			name: "regular (GV06-style [15])", model: "Byzantine, unauthenticated, S=3t+1",
			notes: "the Section 5 building block; regular, not atomic",
			write: func(th quorum.Thresholds, i int) sim.OpFunc {
				return func(c *sim.Client) (types.Value, error) {
					w := regular.NewWriterAt(c, th, types.WriterReg, 0, types.At(int64(i-1)))
					return types.Bottom, w.Write(types.Value(fmt.Sprintf("v%d", i)))
				}
			},
			read: func(th quorum.Thresholds) sim.OpFunc {
				return func(c *sim.Client) (types.Value, error) {
					return regular.NewReader(c, th, types.WriterReg).Read()
				}
			},
		},
		{
			name: "atomic = regular + transformation (this paper §5)", model: "Byzantine, unauthenticated, S=3t+1",
			notes: "adaptive: 2-round stable reads (write-back elided); 4 worst-case per Prop. 1",
			write: func(th quorum.Thresholds, i int) sim.OpFunc {
				return func(c *sim.Client) (types.Value, error) {
					w := core.NewWriterAt(c, th, 0, types.At(int64(i-1)))
					return types.Bottom, w.Write(types.Value(fmt.Sprintf("v%d", i)))
				}
			},
			read: func(th quorum.Thresholds) sim.OpFunc {
				return func(c *sim.Client) (types.Value, error) {
					r := core.NewReaderAt(c, th, 1, 2, readerSeqs[th.T])
					v, err := r.Read()
					readerSeqs[th.T] = r.Seq()
					return v, err
				}
			},
		},
		{
			name: "atomic, secret tokens ([8] model)", model: "Byzantine, secret values, S=3t+1",
			notes: "1-round stable reads (fast path + elision); 4 under contention (approximation of [8])",
			write: func(th quorum.Thresholds, i int) sim.OpFunc {
				return func(c *sim.Client) (types.Value, error) {
					w := secret.NewAtomicWriterAt(c, th, rng, 0, types.At(int64(i-1)))
					return types.Bottom, w.Write(types.Value(fmt.Sprintf("v%d", i)))
				}
			},
			read: func(th quorum.Thresholds) sim.OpFunc {
				return func(c *sim.Client) (types.Value, error) {
					r := secret.NewAtomicReaderAt(c, th, rng, 1, 2, secretSeqs[th.T])
					v, err := r.Read()
					secretSeqs[th.T] = r.Seq()
					return v, err
				}
			},
		},
		{
			name: "retry baseline (pre-2011, e.g. [2])", model: "Byzantine, unauthenticated, S=3t+1",
			notes: "reads unbounded under contention/staleness (E6)",
			write: func(th quorum.Thresholds, i int) sim.OpFunc {
				return func(c *sim.Client) (types.Value, error) {
					w := retry.NewWriterAt(c, th, types.At(int64(i-1)))
					return types.Bottom, w.Write(types.Value(fmt.Sprintf("v%d", i)))
				}
			},
			read: func(th quorum.Thresholds) sim.OpFunc {
				return func(c *sim.Client) (types.Value, error) {
					return retry.NewReader(c, th).Read()
				}
			},
		},
	}
}

// MeasureComplexity runs experiment E4: the worst-case rounds per operation
// of every implementation, measured in the deterministic simulator across
// fault-free and t-Byzantine (silent, garbage, stale) scenarios.
func MeasureComplexity(t int) ([]ComplexityRow, error) {
	rng := rand.New(rand.NewSource(42))
	var rows []ComplexityRow
	for _, hn := range harnesses(rng) {
		s := quorum.OptimalObjects(t)
		th, err := quorum.NewThresholds(s, t)
		if err != nil {
			return nil, err
		}
		if strings.HasPrefix(hn.name, "ABD") {
			// ABD is measured in its own crash model (t crash faults).
			th = quorum.Thresholds{S: 2*t + 1, T: t}
		}
		maxW, maxR := 0, 0
		// Each faulty scenario runs twice: RunOp delivers in object order and a
		// round integrates no reply past the one that completes it, so t faulty
		// objects placed first are heard in every quorum and placed last, never.
		for run := 0; run < 8; run++ {
			scenario, first := run/2, 1+run%2*(th.S-th.T)
			sm := sim.New(sim.Config{Servers: th.S})
			for i := 1; i <= 2; i++ {
				w := sm.Spawn(fmt.Sprintf("w%d", i), types.Writer, checker.OpWrite, types.Bottom, hn.write(th, i))
				if err := sm.RunOp(w); err != nil {
					sm.Close()
					return nil, fmt.Errorf("%s write: %w", hn.name, err)
				}
				if w.Rounds() > maxW {
					maxW = w.Rounds()
				}
			}
			var byz func(sid int) server.Behavior
			switch {
			case scenario == 1:
				byz = func(int) server.Behavior { return server.Silent{} }
			case strings.HasPrefix(hn.name, "ABD"): // crash model has no liars
			case scenario == 2:
				byz = func(int) server.Behavior { return server.Garbage{Level: 500, Val: "evil"} }
			case scenario == 3:
				byz = func(sid int) server.Behavior { return &server.Stale{Snap: sm.Snapshot(sid)} }
			}
			for sid := first; byz != nil && sid < first+th.T; sid++ {
				sm.SetByzantine(sid, byz(sid))
			}
			rd := sm.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, hn.read(th))
			if err := sm.RunOp(rd); err != nil {
				sm.Close()
				return nil, fmt.Errorf("%s read: %w", hn.name, err)
			}
			if rd.Rounds() > maxR {
				maxR = rd.Rounds()
			}
			sm.Close()
		}
		if strings.HasPrefix(hn.name, "retry") {
			// The retry baseline's worst case needs the split-view
			// staleness adversary of E6 (plain staleness scenarios above
			// are resolved in one querying round).
			rr, _, err := retryUnderStaleness(th)
			if err != nil {
				return nil, err
			}
			if rr+1 > maxR { // +1 for the write-back round it never reached
				maxR = rr + 1
			}
		}
		rows = append(rows, ComplexityRow{
			Name: hn.name, Model: hn.model, WriteRounds: maxW, ReadRounds: maxR, Notes: hn.notes,
		})
	}
	return rows, nil
}

// ComplexityTable renders E4.
func ComplexityTable(t int) (string, error) {
	rows, err := MeasureComplexity(t)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "E4 — Section 5 complexity table, measured (t=%d; worst case over fault-free,\n", t)
	fmt.Fprintf(&b, "     t-silent, t-garbage and t-stale Byzantine scenarios)\n")
	fmt.Fprintf(&b, "%-52s %-38s %6s %6s\n", "implementation", "model", "write", "read")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-52s %-38s %6d %6d\n", r.Name, r.Model, r.WriteRounds, r.ReadRounds)
	}
	b.WriteString("\npaper (SWMR): ABD 1W/2R (crash) · regular 2W/2R · atomic 2W/4R (optimal) ·\n")
	b.WriteString("       secret-token atomic 2W/3R (contention-free) · prior art unbounded/Ω(t)\n")
	b.WriteString("this repo (MWMR, adaptive): 2W uncontended (optimistic proposal certifies),\n")
	b.WriteString("       3W under write contention, ≤5W vs. Byzantine-inflated reports;\n")
	b.WriteString("       reads decide on the first query round when 2t+1 objects agree and\n")
	b.WriteString("       elide the write-back when the queries certify completeness —\n")
	b.WriteString("       1R on stable registers, 2R when only the decision round can tell,\n")
	b.WriteString("       4R worst case per Prop. 1\n")
	return b.String(), nil
}

// RetryContrast runs experiment E6: read rounds of the retry baseline vs the
// 4-round-optimal atomic register under a staleness adversary (one slow
// correct object plus t stale Byzantine objects, the split-view schedule of
// the retry tests). It returns (retryRounds, optimalRounds, converged).
func RetryContrast(t int) (int, int, bool, error) {
	th, err := quorum.NewThresholds(quorum.OptimalObjects(t), t)
	if err != nil {
		return 0, 0, false, err
	}
	// Retry register under the adversary.
	retryRounds, converged, err := retryUnderStaleness(th)
	if err != nil {
		return 0, 0, false, err
	}
	// The optimal register under the same adversary always reads in 4.
	optRounds, err := optimalUnderStaleness(th)
	if err != nil {
		return 0, 0, false, err
	}
	return retryRounds, optRounds, converged, nil
}

func retryUnderStaleness(th quorum.Thresholds) (rounds int, converged bool, err error) {
	sm := sim.New(sim.Config{Servers: th.S})
	defer sm.Close()
	w1 := sm.Spawn("w1", types.Writer, checker.OpWrite, "a", func(c *sim.Client) (types.Value, error) {
		return types.Bottom, retry.NewWriter(c, th).Write("a")
	})
	if err := sm.RunOp(w1); err != nil {
		return 0, false, err
	}
	snaps := make([][]byte, th.T+1)
	for i := 1; i <= th.T; i++ {
		snaps[i] = sm.Snapshot(i)
	}
	// Write "b" on a quorum that excludes object t+1 (slow correct).
	var quorumObjs []int
	for sid := 1; sid <= th.S; sid++ {
		if sid != th.T+1 {
			quorumObjs = append(quorumObjs, sid)
		}
	}
	w2 := sm.Spawn("w2", types.Writer, checker.OpWrite, "b", func(c *sim.Client) (types.Value, error) {
		w := retry.NewWriterAt(c, th, types.At(1))
		return types.Bottom, w.Write("b")
	})
	sm.Step(w2, quorumObjs...)
	sm.Step(w2, quorumObjs...)
	if !w2.Done() {
		return 0, false, fmt.Errorf("experiments: write b incomplete")
	}
	for i := 1; i <= th.T; i++ {
		sm.SetByzantine(i, &server.Stale{Snap: snaps[i]})
	}
	var r *retry.Reader
	rd := sm.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, func(c *sim.Client) (types.Value, error) {
		r = retry.NewReader(c, th)
		return r.Read()
	})
	// The adversary keeps object t+1's pending write undelivered: every
	// query round sees the split view.
	for !rd.Done() {
		sm.StepAll(rd)
	}
	_, opErr := rd.Result()
	return r.Rounds, opErr == nil, nil
}

func optimalUnderStaleness(th quorum.Thresholds) (int, error) {
	sm := sim.New(sim.Config{Servers: th.S})
	defer sm.Close()
	w1 := sm.Spawn("w1", types.Writer, checker.OpWrite, "a", func(c *sim.Client) (types.Value, error) {
		return types.Bottom, core.NewWriter(c, th).Write("a")
	})
	if err := sm.RunOp(w1); err != nil {
		return 0, err
	}
	snaps := make([][]byte, th.T+1)
	for i := 1; i <= th.T; i++ {
		snaps[i] = sm.Snapshot(i)
	}
	var quorumObjs []int
	for sid := 1; sid <= th.S; sid++ {
		if sid != th.T+1 {
			quorumObjs = append(quorumObjs, sid)
		}
	}
	w2 := sm.Spawn("w2", types.Writer, checker.OpWrite, "b", func(c *sim.Client) (types.Value, error) {
		return types.Bottom, core.NewWriterAt(c, th, 0, types.At(1)).Write("b")
	})
	sm.Step(w2, quorumObjs...) // PREWRITE (optimistic proposal, certifies)
	sm.Step(w2, quorumObjs...) // WRITE
	if !w2.Done() {
		return 0, fmt.Errorf("experiments: write b incomplete")
	}
	for i := 1; i <= th.T; i++ {
		sm.SetByzantine(i, &server.Stale{Snap: snaps[i]})
	}
	rd := sm.Spawn("rd", types.Reader(1), checker.OpRead, types.Bottom, func(c *sim.Client) (types.Value, error) {
		return core.NewReader(c, th, 1, 2).Read()
	})
	if err := sm.RunOp(rd); err != nil {
		return 0, err
	}
	v, err := rd.Result()
	if err != nil {
		return 0, err
	}
	if v != "b" {
		return 0, fmt.Errorf("experiments: optimal read returned %q under staleness", v)
	}
	return rd.Rounds(), nil
}

// RetryContrastTable renders E6 across fault budgets.
func RetryContrastTable(tMax int) (string, error) {
	var b strings.Builder
	b.WriteString("E6 — read rounds under a staleness adversary: pre-2011 retry baseline vs\n")
	b.WriteString("     the paper's 4-round-optimal atomic register\n")
	fmt.Fprintf(&b, "%4s %6s %16s %16s\n", "t", "S", "retry reads", "optimal reads")
	for t := 1; t <= tMax; t++ {
		rr, opt, conv, err := RetryContrast(t)
		if err != nil {
			return "", err
		}
		status := fmt.Sprintf("%d (gave up)", rr)
		if conv {
			status = fmt.Sprintf("%d", rr)
		}
		fmt.Fprintf(&b, "%4d %6d %16s %16d\n", t, quorum.OptimalObjects(t), status, opt)
	}
	b.WriteString("\npaper §1.2: prior robust atomic reads are unbounded or Ω(t); §5: 4 rounds suffice\n")
	return b.String(), nil
}
