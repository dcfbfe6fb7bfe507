package tcpnet

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"robustatomic/internal/config"
	"robustatomic/internal/core"
	"robustatomic/internal/persist"
	"robustatomic/internal/quorum"
	"robustatomic/internal/types"
)

// waitEpoch polls until the daemon's active epoch reaches want (the config
// write completes at a quorum; the last daemon adopts it asynchronously).
func waitEpoch(t *testing.T, s *Server, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Epoch() < want {
		if time.Now().After(deadline) {
			t.Fatalf("s%d epoch = %d, want %d", s.ID, s.Epoch(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerEpochGate pins the object-side epoch gate end to end: a config
// written to the reserved config register raises every daemon's active
// epoch; data-plane rounds stamped with the superseded epoch are refused
// with the typed redirect (carrying a decodable hint) and leave no trace in
// the WAL; stamps AHEAD of a daemon are accepted (the daemon is the stale
// party during activation); recovery re-derives the epoch from the
// persisted config register.
func TestServerEpochGate(t *testing.T) {
	thr, err := quorum.NewThresholds(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := t.TempDir()
	var servers []*Server
	var addrs []string
	var opts []ServerOptions
	for i := 1; i <= 4; i++ {
		o := ServerOptions{DataDir: filepath.Join(base, fmt.Sprintf("s%d", i)), Fsync: persist.FsyncOff}
		s, err := NewServerWith(i, "127.0.0.1:0", o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		servers = append(servers, s)
		addrs = append(addrs, s.Addr())
		opts = append(opts, o)
	}

	// Seed the data plane at the bootstrap epoch.
	wc := NewMux(addrs).Client(types.Writer, 0)
	defer wc.mux.Close()
	w := core.NewWriter(wc, thr)
	if err := w.Write("v1"); err != nil {
		t.Fatal(err)
	}

	// Activate epoch 2 by writing the config register (config-plane rounds
	// carry the wildcard stamp, so the write is never refused).
	cfg := config.Config{Epoch: 2, Addrs: addrs}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cc := NewMux(addrs).Client(types.Writer, config.Reg)
	defer cc.mux.Close()
	if err := core.NewWriter(cc, thr).Write(cfg.Encode()); err != nil {
		t.Fatalf("config write: %v", err)
	}
	for _, s := range servers {
		waitEpoch(t, s, 2)
	}

	// The epoch-1 client is now stale: its next round must be refused with
	// the typed redirect, and the hint must decode to the active config.
	err = w.Write("stale")
	var we *WrongEpochError
	if !errors.As(err, &we) {
		t.Fatalf("stale write: err = %v, want *WrongEpochError", err)
	}
	if we.Epoch != 2 {
		t.Errorf("redirect epoch = %d, want 2", we.Epoch)
	}
	if len(we.Hints) == 0 {
		t.Fatal("redirect carried no config hint")
	}
	hinted, err := config.Decode(we.Hints[0])
	if err != nil || !hinted.Equal(cfg) {
		t.Errorf("hint decoded to (%v, %v), want the active config", hinted, err)
	}

	// Adopting the new configuration un-refuses the client; a stamp AHEAD of
	// the daemons (an epoch they have not yet activated) is also accepted —
	// the daemon is the stale party there, and refusing would deadlock the
	// handoff that is about to inform it.
	if err := wc.mux.Reconfigure(2, addrs); err != nil {
		t.Fatal(err)
	}
	if err := w.Write("v2"); err != nil {
		t.Fatalf("write after refetch: %v", err)
	}
	if err := wc.mux.Reconfigure(9, addrs); err != nil {
		t.Fatal(err)
	}
	if err := w.Write("v3"); err != nil {
		t.Fatalf("write with ahead stamp: %v", err)
	}

	// Restart a daemon from its data dir: recovery must re-derive the active
	// epoch from the persisted config register, and the refused stale write
	// must have left no trace (the gate runs before the WAL append).
	addr1 := servers[0].Addr()
	servers[0].Close()
	s1 := restartServer(t, 1, addr1, opts[0])
	t.Cleanup(s1.Close)
	if got := s1.Epoch(); got != 2 {
		t.Errorf("recovered epoch = %d, want 2", got)
	}
	rc := NewMux(addrs).Client(types.Reader(1), 0)
	defer rc.mux.Close()
	if err := rc.mux.Reconfigure(2, addrs); err != nil {
		t.Fatal(err)
	}
	forceRedial(t, rc, 1)
	v, err := core.NewReader(rc, thr, 1, 2).Read()
	if err != nil {
		t.Fatal(err)
	}
	if v != "v3" {
		t.Errorf("read after restart = %q, want v3 (refused write must not replay)", v)
	}
}
