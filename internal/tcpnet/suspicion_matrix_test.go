package tcpnet

import (
	"flag"
	"fmt"
	"sync"
	"testing"
	"time"

	"robustatomic/internal/checker"
	"robustatomic/internal/core"
	"robustatomic/internal/proto"
	"robustatomic/internal/quorum"
	"robustatomic/internal/regular"
	"robustatomic/internal/server"
	"robustatomic/internal/types"
)

var fullMatrix = flag.Bool("tcpnet.fullmatrix", false, "run the deferral safety matrix for every k (make torture-short)")

// TestDeferralSafetyMatrix is core's crashed-writer × Byzantine-behaviour ×
// concurrent-readers hit matrix over real sockets with deferral ACTIVE: the
// mux is made to hold back nobody, the Byzantine object, or a CORRECT object
// (a wrong suspicion) while a write one correct object missed and a write
// that crashed after reaching k objects in either phase are read by
// concurrent and sequential readers, hit-taking and abstaining. Safety:
// every history passes checker.CheckAtomicMW. Liveness: no read fails, and
// none comes near RoundTimeout — with a silent Byzantine object and a
// deferred correct one, that is the hedge delay's doing.
func TestDeferralSafetyMatrix(t *testing.T) {
	const S = 4
	ks := []int{2}
	if *fullMatrix {
		ks = []int{0, 1, 2, 3, 4}
	}
	faults := map[string]func() server.Behavior{
		"none":         nil,
		"stale":        func() server.Behavior { return &server.Stale{} },
		"garbage-high": func() server.Behavior { return server.Garbage{Level: 1 << 30, Val: "forged"} },
		"garbage-low":  func() server.Behavior { return server.Garbage{Level: 1, Val: "forged"} },
		"equivocate":   func() server.Behavior { return server.Equivocate{Readers: &server.Stale{}} },
		"falseelide":   func() server.Behavior { return &server.FalseElide{} },
		"silent":       func() server.Behavior { return server.Silent{} },
	}
	for _, phase := range []string{"PREWRITE", "WRITE"} {
		for _, k := range ks {
			for _, byzSID := range []int{1, S} {
				for name, mk := range faults {
					for _, held := range []int{0, byzSID, 3} {
						phase, k, byzSID, name, mk, held := phase, k, byzSID, name, mk, held
						t.Run(fmt.Sprintf("%s@%d/s%d=%s/defer=s%d", phase, k, byzSID, name, held), func(t *testing.T) {
							t.Parallel()
							runDeferralCell(t, phase, k, byzSID, mk, held)
						})
					}
				}
			}
		}
	}
}

func runDeferralCell(t *testing.T, phase string, k, byzSID int, mk func() server.Behavior, held int) {
	const S, R = 4, 3
	th, err := quorum.NewThresholds(S, 1)
	if err != nil {
		t.Fatal(err)
	}
	servers, addrs := startCluster(t, S)
	m := NewMux(addrs)
	defer m.Close()
	h := &checker.History{}
	known := proto.NewKnown(th)
	var last types.TS
	write := func(v types.Value) {
		t.Helper()
		id := h.Invoke(types.Writer, checker.OpWrite, v)
		w := core.NewWriterAt(m.Client(types.Writer, 0), th, 0, last)
		w.UseKnown(known)
		if err := w.Write(v); err != nil {
			t.Fatalf("write %s: %v", v, err)
		}
		last = w.LastTS()
		h.Respond(id, types.Bottom)
	}

	write("a")
	silent := false
	if mk != nil {
		b := mk()
		_, silent = b.(server.Silent)
		servers[byzSID-1].SetBehavior(b)
	}
	// "b" completes without the correct object s2, which stays at "a" (a
	// silent Byzantine object leaves no room for a second absentee).
	servers[1].SetPartitioned(!silent)
	write("b")
	servers[1].SetPartitioned(false)

	if held != 0 {
		for i := 0; i < suspectRun; i++ {
			m.susp.observe(proto.Verdict{W: mask(held)})
		}
	}

	// The crashed write of "c": its PREWRITE, or its WRITE after a complete
	// PREWRITE, reaches objects 1..k only, and the writer never returns.
	h.Invoke(types.Writer, checker.OpWrite, "c")
	wc := m.Client(types.Writer, 0)
	wc.RoundTimeout = 30 * time.Millisecond
	cw := regular.NewWriterAt(wc, th, types.WriterReg, 0, last)
	c := types.Pair{TS: last.Next(0), Val: "c"}
	cut := func(on bool) {
		for sid := k + 1; sid <= S; sid++ {
			servers[sid-1].SetPartitioned(on)
		}
	}
	if phase == "PREWRITE" {
		cut(true)
		cw.PreWritePair(c)
	} else {
		if _, err := cw.PreWritePair(c); err != nil {
			t.Fatalf("prewrite c: %v", err)
		}
		cut(true)
		cw.CommitPair(c)
	}
	cut(false)

	seqs := make([]int64, R+1)
	var mu sync.Mutex
	read := func(idx int, fresh bool) {
		id := h.Invoke(types.Reader(idx), checker.OpRead, types.Bottom)
		mu.Lock()
		seq := seqs[idx]
		mu.Unlock()
		rc := m.Client(types.Reader(idx), 0)
		r := core.NewReaderAt(rc, th, idx, R, seq)
		if fresh {
			r = core.NewReader(rc, th, idx, R)
		}
		r.UseKnown(known)
		start := time.Now()
		v, err := r.Read()
		if err != nil {
			t.Errorf("read by r%d: %v", idx, err)
			return
		}
		if d := time.Since(start); d > rc.RoundTimeout/2 {
			t.Errorf("read by r%d took %v: a round waited for its timeout", idx, d)
		}
		mu.Lock()
		seqs[idx] = r.Seq()
		mu.Unlock()
		h.Respond(id, v)
	}
	var wg sync.WaitGroup
	for idx, fresh := range []bool{false, true, false} {
		idx, fresh := idx+1, fresh
		wg.Add(1)
		go func() { defer wg.Done(); read(idx, fresh) }()
	}
	wg.Wait()
	for i, fresh := range []bool{false, true, false, true, false, false} {
		read(i%R+1, fresh)
	}
	if err := checker.CheckAtomicMW(h); err != nil {
		t.Fatal(err)
	}
}
