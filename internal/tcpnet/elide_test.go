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

	// Two registers of 40 KB each: every write fits a frame, every
	// single-register read fits a frame, a cold two-register read does not.
	val := types.Value(strings.Repeat("x", 40<<10))
	wc := mux.Client(types.Writer, 0)
	if err := regular.NewWriter(wc, thr, types.WriterReg).Write(val); err != nil {
		t.Fatal(err)
	}
	rc := mux.Client(types.Reader(1), 0)
	rc.RoundTimeout = 300 * time.Millisecond
	if err := regular.NewWriter(rc, thr, types.ReaderReg(1)).Write(core.EncodePair(types.Pair{TS: types.At(1), Val: val})); err != nil {
		t.Fatal(err)
	}

	oversize, lost := mSrvOversize.Value(), mMuxConnLost.Value()
	_, err = core.NewReader(rc, thr, 1, 1).ReadPair()
	if !errors.Is(err, ErrRoundTimeout) {
		t.Fatalf("cold read of two 40 KB registers under a 64 KB frame bound: %v, want a round timeout", err)
	}
	if d := mSrvOversize.Value() - oversize; d < 3 {
		t.Errorf("oversize replies counted: %d, want ≥ 3", d)
	}
	// The same connections still serve: a single-register read goes through,
	// and nothing was torn down.
	if v, err := regular.NewReader(rc, thr, types.WriterReg).Read(); err != nil || v != val {
		t.Errorf("read on the same connections after the oversize reply: %d bytes, %v", len(v), err)
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
