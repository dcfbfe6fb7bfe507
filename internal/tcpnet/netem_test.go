package tcpnet

import (
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"robustatomic/internal/core"
	"robustatomic/internal/server"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

// eachLink runs f over a Mux on both links that run in real time: n daemons
// on loopback TCP, and the same objects mounted in this process (requests
// served inline). hosts[i] is object i+1 either way. (The scheduled link:
// internal/sim's link tests.)
func eachLink(t *testing.T, n int, f func(t *testing.T, hosts []*server.Host, m *Mux)) {
	t.Run("tcp", func(t *testing.T) {
		servers, addrs := startCluster(t, n)
		hosts := make([]*server.Host, n)
		for i, s := range servers {
			hosts[i] = s.Host
		}
		m := NewMux(addrs)
		defer m.Close()
		f(t, hosts, m)
	})
	t.Run("mem", func(t *testing.T) {
		hosts := server.NewHosts(n)
		m := NewMemMux(hosts)
		defer m.Close()
		f(t, hosts, m)
	})
}

// TestPartitionDropsWithoutProcessing: a partitioned object drops requests
// before the WAL and the automaton — its state must not advance (unlike
// server.Silent) — while the S-t live quorum keeps serving; healing folds it
// straight back.
func TestPartitionDropsWithoutProcessing(t *testing.T) {
	thr := thresholds(t, 1)
	eachLink(t, 4, func(t *testing.T, hosts []*server.Host, m *Mux) {
		hosts[0].SetPartitioned(true)
		w := core.NewWriter(m.Client(types.Writer, 0), thr)
		if err := w.Write("v1"); err != nil {
			t.Fatalf("write with one partitioned object: %v", err)
		}
		if n := hosts[0].Registers(); n != 0 {
			t.Fatalf("partitioned object instantiated %d registers — it processed dropped requests", n)
		}

		hosts[0].SetPartitioned(false)
		if err := w.Write("v2"); err != nil {
			t.Fatalf("write after heal: %v", err)
		}
		// The write round completes on 2t+1 acks, possibly before the healed
		// object has received its request; give it a moment to show state.
		deadline := time.Now().Add(2 * time.Second)
		for hosts[0].Registers() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("healed object still not processing requests")
			}
			time.Sleep(5 * time.Millisecond)
		}

		rd := core.NewReader(m.Client(types.Reader(1), 0), thr, 1, 2)
		v, err := rd.Read()
		if err != nil {
			t.Fatal(err)
		}
		if v != "v2" {
			t.Fatalf("read = %q, want v2", v)
		}
	})
}

// TestNetemDropDupDelay: seeded link faults — dropped requests, doubled
// replies (the link discards the copy: the request is already resolved), and
// wire delay — stay within the fault budget and never corrupt results.
func TestNetemDropDupDelay(t *testing.T) {
	thr := thresholds(t, 1)
	eachLink(t, 4, func(t *testing.T, hosts []*server.Host, m *Mux) {
		hosts[1].SetNetem(rand.New(rand.NewSource(3)), 0.5, 0, 0)
		hosts[2].SetNetem(rand.New(rand.NewSource(4)), 0, 1.0, time.Millisecond)
		w := core.NewWriter(m.Client(types.Writer, 0), thr)
		rd := core.NewReader(m.Client(types.Reader(1), 0), thr, 1, 2)
		for i := 0; i < 8; i++ {
			val := types.Value(fmt.Sprintf("v%d", i))
			if err := w.Write(val); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			v, err := rd.Read()
			if err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			if v != val {
				t.Fatalf("read %d = %q, want %q", i, v, val)
			}
			if n := m.pendingWaiters(); n != 0 {
				t.Fatalf("%d waiters left registered after operation %d", n, i)
			}
		}
	})
	// A delayed reply is not held back for the next one: of two pipelined
	// requests, each delayed by d, the first reply arrives before 2d.
	t.Run("pipelined", func(t *testing.T) {
		const d = 200 * time.Millisecond
		s, err := NewServer(1, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.SetNetem(rand.New(rand.NewSource(5)), 0, 0, d)
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		dec := wire.NewDecoder(conn)
		start := time.Now()
		pipeline(t, conn, readReq, readReq)
		awaitReplies(t, dec, 1)
		if got := time.Since(start); got >= 2*d {
			t.Fatalf("first of two replies delayed by %v each arrived after %v", d, got)
		}
		if rsp, err := dec.DecodeResponse(); err != nil || rsp.ID != 2 {
			t.Fatalf("second reply: %+v, %v", rsp, err)
		}
	})
}
