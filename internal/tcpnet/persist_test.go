package tcpnet

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"robustatomic/internal/checker"
	"robustatomic/internal/core"
	"robustatomic/internal/persist"
	"robustatomic/internal/quorum"
	"robustatomic/internal/server"
	"robustatomic/internal/types"
)

// restartServer rebinds a daemon on its old address (the OS may hold the
// port briefly after Close).
func restartServer(t *testing.T, id int, addr string, opts ServerOptions) *Server {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s, err := NewServerWith(id, addr, opts)
		if err == nil {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// forceRedial expires a client's dial backoff for object sid and waits for
// the background redial to adopt the recovered connection.
func forceRedial(t *testing.T, c *Client, sid int) {
	t.Helper()
	m := c.mux
	socks(m).mu.Lock()
	socks(m).dials[sid-1].failedAt = time.Now().Add(-2 * DialBackoff)
	socks(m).mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		mc, err := socks(m).connFor(sid)
		if err == nil && mc != nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("background dial never adopted the restarted daemon")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRestartRecoversStateMidBurst is the durability acceptance scenario at
// the tcpnet layer: a daemon is killed in the middle of a write burst and
// restarted on the same address with the same data dir. The test verifies
// (a) the background-redial client reconnects, (b) the daemon's recovered
// register state exactly matches its pre-crash state (no amnesia), and
// (c) the checker accepts the full history — including the phase where the
// recovered daemon is one of only two honest live objects, which a blank
// restart could not serve.
func TestRestartRecoversStateMidBurst(t *testing.T) {
	thr, err := quorum.NewThresholds(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := t.TempDir()
	var servers []*Server
	var addrs []string
	var opts []ServerOptions
	for i := 1; i <= 4; i++ {
		o := ServerOptions{DataDir: filepath.Join(base, fmt.Sprintf("s%d", i)), Fsync: persist.FsyncBatch}
		s, err := NewServerWith(i, "127.0.0.1:0", o)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
		addrs = append(addrs, s.Addr())
		opts = append(opts, o)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	h := &checker.History{}
	wc := NewMux(addrs).Client(types.Writer, 0)
	defer wc.mux.Close()
	w := core.NewWriter(wc, thr)
	write := func(i int) {
		t.Helper()
		v := types.Value(fmt.Sprintf("v%d", i))
		id := h.Invoke(types.Writer, checker.OpWrite, v)
		if err := w.Write(v); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		h.Respond(id, types.Bottom)
	}
	rc := NewMux(addrs).Client(types.Reader(1), 0)
	defer rc.mux.Close()
	rd := core.NewReader(rc, thr, 1, 2)
	read := func(want string) {
		t.Helper()
		id := h.Invoke(types.Reader(1), checker.OpRead, types.Bottom)
		v, err := rd.Read()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		h.Respond(id, v)
		if want != "" && string(v) != want {
			t.Fatalf("read = %q, want %q", v, want)
		}
	}

	for i := 1; i <= 5; i++ {
		write(i)
	}
	read("")

	// Snapshot s4's raw state, then kill it mid-burst.
	// (A round completes on S−t replies, so s4 may still have the burst's
	// last frames in flight: wait for them, or the snapshot is not the state
	// it crashes in.)
	var prePW, preW types.Pair
	for deadline := time.Now().Add(5 * time.Second); preW.TS != types.At(5) && time.Now().Before(deadline); {
		if prePW, preW, err = probeShared(addrs[3], 0); err != nil {
			t.Fatal(err)
		}
	}
	if preW.IsBottom() {
		t.Fatal("s4 holds no state before the kill — test is vacuous")
	}
	servers[3].Close()

	// The burst continues: 3 live objects are exactly S-t.
	for i := 6; i <= 10; i++ {
		write(i)
	}
	read("")

	// Restart on the same address with the same data dir.
	servers[3] = restartServer(t, 4, addrs[3], opts[3])

	// (b) No amnesia: the recovered state equals the pre-crash state.
	postPW, postW, err := probeShared(addrs[3], 0)
	if err != nil {
		t.Fatal(err)
	}
	if postPW != prePW || postW != preW {
		t.Fatalf("recovered state (pw %v, w %v) != pre-crash (pw %v, w %v)", postPW, postW, prePW, preW)
	}

	// (a) The PR 2 background-redial path adopts the restarted daemon.
	forceRedial(t, wc, 4)
	forceRedial(t, rc, 4)

	// s1 turns stale (frozen at the current level), then more writes catch
	// the recovered daemon up to the head of the register.
	servers[0].SetBehavior(&server.Stale{})
	for i := 11; i <= 15; i++ {
		write(i)
	}
	// One full-cluster read catches the recovered daemon's write-back
	// register up too (its write-back round precedes the next read on the
	// same ordered connection), so the degraded quorum below can certify
	// every register instance.
	read("v15")

	// (c) Force reads to depend on the recovered daemon: with s3 down and
	// s1 stale below the head, certifying the latest write needs both s2
	// and s4 — a blank (amnesiac) s4 could not have rejoined this quorum,
	// and the decision procedure would refuse to answer.
	servers[2].Close()
	read("v15")

	if err := checker.CheckAtomic(h); err != nil {
		t.Fatal(err)
	}
}

// seedShared installs p in the shared register of instance reg over a
// one-shot Direct.
func seedShared(addr string, reg int, p types.Pair) error {
	d := direct(addr, types.Reader(1))
	defer d.Close()
	return d.Seed(reg, p)
}

// probeShared reads the shared register of instance reg over a one-shot
// Direct.
func probeShared(addr string, reg int) (pw, w types.Pair, err error) {
	d := direct(addr, types.Reader(1))
	defer d.Close()
	return d.Probe(reg)
}

// TestServerPersistedAcrossManyInstances verifies the multi-register path:
// instances touched before a restart recover, instances never touched stay
// absent, and compaction mid-run loses nothing.
func TestServerPersistedAcrossManyInstances(t *testing.T) {
	dir := t.TempDir()
	o := ServerOptions{DataDir: dir, Fsync: persist.FsyncOff}
	s, err := NewServerWith(1, "127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	for reg := 0; reg < 6; reg++ {
		if err := seedShared(addr, reg, types.Pair{TS: types.At(int64(reg + 1)), Val: types.Value(fmt.Sprintf("reg%d", reg))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// Post-compaction mutations land in the fresh WAL generation.
	if err := seedShared(addr, 2, types.Pair{TS: types.At(9), Val: "after-compact"}); err != nil {
		t.Fatal(err)
	}
	if got := s.Registers(); got != 6 {
		t.Fatalf("hosting %d instances, want 6", got)
	}
	s.Close()

	s2 := restartServer(t, 1, addr, o)
	defer s2.Close()
	if got := s2.Registers(); got != 6 {
		t.Fatalf("recovered %d instances, want 6", got)
	}
	for reg := 0; reg < 6; reg++ {
		_, w, err := probeShared(addr, reg)
		if err != nil {
			t.Fatal(err)
		}
		want := types.Pair{TS: types.At(int64(reg + 1)), Val: types.Value(fmt.Sprintf("reg%d", reg))}
		if reg == 2 {
			want = types.Pair{TS: types.At(9), Val: "after-compact"}
		}
		if w != want {
			t.Errorf("instance %d: W = %v, want %v", reg, w, want)
		}
	}
}
