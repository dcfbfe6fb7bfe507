package tcpnet

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"robustatomic/internal/checker"
	"robustatomic/internal/core"
	"robustatomic/internal/obs"
	"robustatomic/internal/quorum"
	"robustatomic/internal/server"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

// startCluster launches n object servers on loopback.
func startCluster(t *testing.T, n int) ([]*Server, []string) {
	t.Helper()
	var servers []*Server
	var addrs []string
	for i := 1; i <= n; i++ {
		s, err := NewServer(i, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		servers = append(servers, s)
		addrs = append(addrs, s.Addr())
	}
	return servers, addrs
}

func TestTCPAtomicRegisterEndToEnd(t *testing.T) {
	thr, err := quorum.NewThresholds(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, addrs := startCluster(t, 4)
	wc := NewMux(addrs).Client(types.Writer, 0)
	defer wc.mux.Close()
	w := core.NewWriter(wc, thr)
	for i := 1; i <= 3; i++ {
		if err := w.Write(types.Value(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	rc := NewMux(addrs).Client(types.Reader(1), 0)
	defer rc.mux.Close()
	rd := core.NewReader(rc, thr, 1, 2)
	v, err := rd.Read()
	if err != nil {
		t.Fatal(err)
	}
	if v != "v3" {
		t.Errorf("read = %q, want v3", v)
	}
	// Stable register: the first round's replies agree — a fresh handle hits
	// like any other — and certify v3's write as complete, so the write-back
	// is elided (Prop. 1's 4 rounds remain the worst case).
	if rc.Rounds != 1 || !rd.Hit || !rd.Elided {
		t.Errorf("read rounds = %d (hit %v, elided %v), want 1", rc.Rounds, rd.Hit, rd.Elided)
	}
}

func TestTCPByzantineServer(t *testing.T) {
	thr, err := quorum.NewThresholds(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	servers, addrs := startCluster(t, 4)
	wc := NewMux(addrs).Client(types.Writer, 0)
	defer wc.mux.Close()
	w := core.NewWriter(wc, thr)
	if err := w.Write("a"); err != nil {
		t.Fatal(err)
	}
	servers[0].SetBehavior(server.Garbage{Level: 777, Val: "evil"})
	rc := NewMux(addrs).Client(types.Reader(1), 0)
	defer rc.mux.Close()
	rd := core.NewReader(rc, thr, 1, 2)
	v, err := rd.Read()
	if err != nil {
		t.Fatal(err)
	}
	if v != "a" {
		t.Errorf("read = %q despite one Byzantine server", v)
	}
}

func TestTCPServerDownWithinBudget(t *testing.T) {
	thr, err := quorum.NewThresholds(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	servers, addrs := startCluster(t, 4)
	servers[3].Close() // one object crashes: within the t=1 budget
	wc := NewMux(addrs).Client(types.Writer, 0)
	defer wc.mux.Close()
	w := core.NewWriter(wc, thr)
	if err := w.Write("a"); err != nil {
		t.Fatal(err)
	}
	rc := NewMux(addrs).Client(types.Reader(1), 0)
	defer rc.mux.Close()
	rd := core.NewReader(rc, thr, 1, 2)
	v, err := rd.Read()
	if err != nil {
		t.Fatal(err)
	}
	if v != "a" {
		t.Errorf("read = %q", v)
	}
}

func TestTCPRoundTimeoutBeyondBudget(t *testing.T) {
	thr, err := quorum.NewThresholds(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	servers, addrs := startCluster(t, 4)
	servers[2].Close()
	servers[3].Close() // two objects down: beyond the t=1 budget
	wc := NewMux(addrs).Client(types.Writer, 0)
	defer wc.mux.Close()
	wc.RoundTimeout = 200 * time.Millisecond
	w := core.NewWriter(wc, thr)
	if err := w.Write("a"); err == nil {
		t.Fatal("write succeeded with 2 of 4 objects down")
	}
}

// TestDeadPeerDoesNotStallRounds pins the dial-backoff fix: after one failed
// dial, rounds must skip the dead object immediately (no synchronous redial
// per round), and a background redial must adopt the object once it is back.
func TestDeadPeerDoesNotStallRounds(t *testing.T) {
	thr, err := quorum.NewThresholds(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	servers, addrs := startCluster(t, 4)
	deadAddr := servers[3].Addr()
	servers[3].Close() // object 4 is down from the start
	wc := NewMux(addrs).Client(types.Writer, 0)
	defer wc.mux.Close()
	w := core.NewWriter(wc, thr)
	if err := w.Write("a"); err != nil { // pays the one failed dial
		t.Fatal(err)
	}
	socks(wc.mux).mu.Lock()
	failedAt := socks(wc.mux).dials[3].failedAt
	socks(wc.mux).mu.Unlock()
	if failedAt.IsZero() {
		t.Fatal("failed dial not recorded")
	}
	// Within the backoff window connFor must refuse instantly, not dial.
	start := time.Now()
	if _, err := socks(wc.mux).connFor(4); err != errObjectDown {
		t.Fatalf("connFor(dead) = %v, want errObjectDown", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("conn(dead) took %v during backoff, want immediate", d)
	}
	start = time.Now()
	if err := w.Write("b"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > dialTimeout {
		t.Errorf("round with a dead peer took %v, want no dial stall", d)
	}

	// Bring object 4 back and expire the backoff: the next conn kicks off a
	// background dial, and the connection appears without blocking a round.
	s4, err := NewServer(4, deadAddr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", deadAddr, err)
	}
	defer s4.Close()
	socks(wc.mux).mu.Lock()
	socks(wc.mux).dials[3].failedAt = time.Now().Add(-2 * DialBackoff)
	socks(wc.mux).mu.Unlock()
	if _, err := socks(wc.mux).connFor(4); err != errDialPending {
		t.Fatalf("connFor(recovering) = %v, want errDialPending", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mc, err := socks(wc.mux).connFor(4)
		if err == nil && mc != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background dial never adopted the recovered object")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := w.Write("c"); err != nil {
		t.Fatal(err)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	thr, err := quorum.NewThresholds(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, addrs := startCluster(t, 4)
	h := &checker.History{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wc := NewMux(addrs).Client(types.Writer, 0)
		defer wc.mux.Close()
		w := core.NewWriter(wc, thr)
		for i := 1; i <= 4; i++ {
			v := types.Value(fmt.Sprintf("v%d", i))
			id := h.Invoke(types.Writer, checker.OpWrite, v)
			if err := w.Write(v); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			h.Respond(id, types.Bottom)
		}
	}()
	for r := 1; r <= 2; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc := NewMux(addrs).Client(types.Reader(r), 0)
			defer rc.mux.Close()
			rd := core.NewReader(rc, thr, r, 2)
			for i := 0; i < 3; i++ {
				id := h.Invoke(types.Reader(r), checker.OpRead, types.Bottom)
				v, err := rd.Read()
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				h.Respond(id, v)
			}
		}()
	}
	wg.Wait()
	if err := checker.CheckAtomic(h); err != nil {
		t.Fatal(err)
	}
}

// TestSameIDServersKeepTheirOwnGauges: during a live replace the incoming
// daemon for a slot runs beside the outgoing one, under the same object id.
// Closing the outgoing server must unregister its own register and epoch
// gauges only: the replacement's still report.
func TestSameIDServersKeepTheirOwnGauges(t *testing.T) {
	gauges := func(s *Server) (registers int64, n int) {
		for name, v := range obs.Default.Snapshot().Gauges {
			if strings.HasPrefix(name, "tcpnet_server_") && strings.Contains(name, fmt.Sprintf("addr=%q", s.Addr())) {
				n++
				if strings.HasPrefix(name, "tcpnet_server_registers{") {
					registers = v
				}
			}
		}
		return registers, n
	}
	outgoing, err := NewServer(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	incoming, err := NewServer(2, "127.0.0.1:0")
	if err != nil {
		outgoing.Close()
		t.Fatal(err)
	}
	defer incoming.Close()
	incoming.Serve(wire.Request{Reg: 7, Msg: types.Message{Kind: types.MsgRead1}})
	outgoing.Close()
	if _, n := gauges(outgoing); n != 0 {
		t.Errorf("closed server left %d gauges registered", n)
	}
	if registers, n := gauges(incoming); n != 2 || registers != 1 {
		t.Errorf("after the outgoing s2 closed, the incoming s2 has %d gauges reporting %d registers; want 2 gauges, 1 register", n, registers)
	}
}
