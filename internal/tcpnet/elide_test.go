package tcpnet

import (
	"errors"
	"strings"
	"testing"
	"time"

	"robustatomic/internal/core"
	"robustatomic/internal/quorum"
	"robustatomic/internal/regular"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

// TestOversizeReplyDoesNotKillConnection is the regression test for the
// latent wedge: a reply too large for one frame used to make serveConn
// return, closing a connection every shard's pipelined requests share — on
// every retry. The reply is now skipped (silence for that one request) and
// the connection keeps serving.
func TestOversizeReplyDoesNotKillConnection(t *testing.T) {
	// The bound is lowered before any connection exists and restored after
	// every server has shut down (cleanups run last-in first-out).
	old := wire.MaxFrame
	wire.MaxFrame = 64 << 10
	t.Cleanup(func() { wire.MaxFrame = old })
	thr, err := quorum.NewThresholds(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, addrs := startCluster(t, 4)
	mux := NewMux(addrs)
	defer mux.Close()

	// One register whose pw and w hold different 40 KB values — a write
	// between its phases: every write fits a frame, a cold read's reply (both
	// slots) does not; once the write completes, the slots share one copy.
	val := types.Value(strings.Repeat("x", 40<<10))
	next := types.Pair{TS: types.At(2), Val: types.Value(strings.Repeat("y", 40<<10))}
	w := regular.NewWriter(mux.Client(types.Writer, 0), thr, types.WriterReg)
	if err := w.Write(val); err != nil {
		t.Fatal(err)
	}
	if _, err := w.PreWritePair(next); err != nil {
		t.Fatal(err)
	}
	rc := mux.Client(types.Reader(1), 0)
	rc.RoundTimeout = 300 * time.Millisecond

	oversize, lost := mSrvOversize.Value(), mMuxConnLost.Value()
	_, err = core.NewReader(rc, thr, 1, 1).ReadPair()
	if !errors.Is(err, ErrRoundTimeout) {
		t.Fatalf("cold read of two 40 KB slots under a 64 KB frame bound: %v, want a round timeout", err)
	}
	if d := mSrvOversize.Value() - oversize; d < 3 {
		t.Errorf("oversize replies counted: %d, want ≥ 3", d)
	}
	// The same connections still serve: the write completes, and a cold read
	// of the one copy goes through.
	if err := w.CommitPair(next); err != nil {
		t.Fatal(err)
	}
	if p, err := core.NewReader(rc, thr, 1, 1).ReadPair(); err != nil || p != next {
		t.Errorf("read on the same connections after the oversize reply: %d bytes at %v, %v", len(p.Val), p.TS, err)
	}
	if d := mMuxConnLost.Value() - lost; d != 0 {
		t.Errorf("%d connections were lost", d)
	}
}

// TestProbeReadsUnconditioned: the operator tools behind storctl probe,
// doctor and repair want an object's RAW state, so Direct never sends a
// have-list or the no-values flag — whatever the protocol clients around it
// hold, a probe is answered with the full values.
func TestProbeReadsUnconditioned(t *testing.T) {
	thr, err := quorum.NewThresholds(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, addrs := startCluster(t, 4)
	mux := NewMux(addrs)
	defer mux.Close()
	if err := core.NewWriter(mux.Client(types.Writer, 0), thr).Write("the-value"); err != nil {
		t.Fatal(err)
	}
	rd := core.NewReader(mux.Client(types.Reader(1), 0), thr, 1, 1)
	for i := 0; i < 2; i++ { // the second read is answered with timestamps only
		if v, err := rd.Read(); err != nil || v != "the-value" {
			t.Fatalf("read = %q, %v", v, err)
		}
	}
	d := mux.Direct(addrs[0], types.Reader(1))
	defer d.Close()
	for name, probe := range map[string]func() (types.Pair, types.Pair, error){
		"ProbeReg": func() (types.Pair, types.Pair, error) { return d.ProbeReg(0, types.WriterReg) },
	} {
		pw, w, err := probe()
		// (s1 is one object of four: the write's rounds may have completed
		// on the other three, its own frames still in flight.)
		for deadline := time.Now().Add(5 * time.Second); err == nil && w.Val != "the-value" && time.Now().Before(deadline); {
			pw, w, err = probe()
		}
		if err != nil || pw.Val != "the-value" || w.Val != "the-value" {
			t.Errorf("%s = pw %v, w %v, %v; want the raw values", name, pw, w, err)
		}
	}
}
