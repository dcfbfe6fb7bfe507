package robustatomic

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"robustatomic/internal/checker"
	"robustatomic/internal/persist"
	"robustatomic/internal/server"
	"robustatomic/internal/tcpnet"
	"robustatomic/internal/types"
)

// restartDaemon rebinds a daemon on its old address (the OS may hold the
// port briefly after Close).
func restartDaemon(t *testing.T, id int, addr string, opts tcpnet.ServerOptions) *tcpnet.Server {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s, err := tcpnet.NewServerWith(id, addr, opts)
		if err == nil {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStoreCrashRestartAtomicity is the crash-recovery acceptance property
// test (run with -race): a seeded concurrent write burst against real TCP
// daemons with data dirs, one daemon kill -9'd at a seeded random point of
// the burst and restarted from disk mid-burst, then verification that (1)
// the burst never observed an error, (2) the checker accepts the full
// per-key history, (3) the restarted daemon's recovered state reaches the
// head of every shard — state recovered, no regression to amnesia.
func TestStoreCrashRestartAtomicity(t *testing.T) {
	const (
		shards  = 4
		keys    = 16
		writes  = 6
		reads   = 4
		readers = 2
	)
	// The seed picks the victim, the kill point and the cluster's delay
	// streams; a failure replays with -chaos.seed.
	seed := chaosSeedFor(t, 31)
	base := t.TempDir()
	var servers [4]*tcpnet.Server
	var addrs []string
	var sopts [4]tcpnet.ServerOptions
	for i := 1; i <= 4; i++ {
		sopts[i-1] = tcpnet.ServerOptions{
			DataDir: filepath.Join(base, fmt.Sprintf("s%d", i)),
			Fsync:   persist.FsyncBatch,
		}
		s, err := tcpnet.NewServerWith(i, "127.0.0.1:0", sopts[i-1])
		if err != nil {
			t.Fatal(err)
		}
		servers[i-1] = s
		addrs = append(addrs, s.Addr())
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	c, err := Connect(addrs, Options{Faults: 1, Readers: readers, Seed: seed, Tracer: chaosTracer(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.NewStore(StoreOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	victim := rng.Intn(4)
	totalOps := keys * (writes + reads)
	killAt := totalOps/4 + rng.Intn(totalOps/4) // a seeded random point mid-burst

	hists := make([]*checker.History, keys)
	for i := range hists {
		hists[i] = &checker.History{}
	}
	var ops int64
	var wg sync.WaitGroup
	var killWg sync.WaitGroup
	killWg.Add(1)
	go func() { // the crash: kill the victim mid-burst, restart it from disk
		defer killWg.Done()
		for atomic.LoadInt64(&ops) < int64(killAt) {
			time.Sleep(200 * time.Microsecond)
		}
		servers[victim].Close()
		time.Sleep(100 * time.Millisecond) // the daemon stays dead mid-burst
		servers[victim] = restartDaemon(t, victim+1, addrs[victim], sopts[victim])
	}()
	for k := 0; k < keys; k++ {
		k := k
		key := fmt.Sprintf("key-%03d", k)
		wg.Add(1)
		go func() { // one putter per key: per-key writes stay sequential
			defer wg.Done()
			for i := 1; i <= writes; i++ {
				val := fmt.Sprintf("k%d-v%d", k, i)
				id := hists[k].Invoke(types.Writer, checker.OpWrite, types.Value(val))
				if err := st.Put(key, val); err != nil {
					t.Errorf("put %s: %v", key, err)
					return
				}
				hists[k].Respond(id, types.Value(val))
				atomic.AddInt64(&ops, 1)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				id := hists[k].Invoke(types.Reader(k%readers+1), checker.OpRead, "")
				v, err := st.Get(key)
				if err != nil {
					t.Errorf("get %s: %v", key, err)
					return
				}
				hists[k].Respond(id, types.Value(v))
				atomic.AddInt64(&ops, 1)
			}
		}()
	}
	wg.Wait()
	killWg.Wait()

	// Let the clients' dial backoff expire and the background redial adopt
	// the restarted daemon, then drive a second short burst through it.
	time.Sleep(2 * tcpnet.DialBackoff)
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%03d", k)
		val := fmt.Sprintf("k%d-final", k)
		id := hists[k].Invoke(types.Writer, checker.OpWrite, types.Value(val))
		if err := st.Put(key, val); err != nil {
			t.Fatalf("post-restart put %s: %v", key, err)
		}
		hists[k].Respond(id, types.Value(val))
		id = hists[k].Invoke(types.Reader(1), checker.OpRead, "")
		v, err := st.Get(key)
		if err != nil {
			t.Fatalf("post-restart get %s: %v", key, err)
		}
		hists[k].Respond(id, types.Value(v))
		if v != val {
			t.Errorf("post-restart %s = %q, want %q", key, v, val)
		}
	}

	// The full history of every key is atomic.
	for k, h := range hists {
		if err := checker.CheckAtomic(h); err != nil {
			t.Errorf("key %d: %v", k, err)
		}
	}

	// The restarted daemon recovered from disk and caught up: every shard
	// register holds genuine, current state.
	for reg := 1; reg <= shards; reg++ {
		_, w, err := probe(addrs[victim], reg)
		if err != nil {
			t.Fatalf("probe restarted s%d reg %d: %v", victim+1, reg, err)
		}
		if w.IsBottom() {
			t.Errorf("restarted s%d reg %d is blank: amnesia", victim+1, reg)
		}
	}
}

// TestRepairReconstitutesWipedObject drives the RADON-style node
// replacement flow: a machine dies and is replaced by a blank daemon on the
// old address, storctl-style repair reconstitutes it from the live quorum,
// and afterwards the deployment again survives a further failure — which it
// could not with the replacement left blank, because a stale object plus a
// blank one exceeds the t=1 budget and stalls certification.
func TestRepairReconstitutesWipedObject(t *testing.T) { eachFabric(t, 4, repairWipedObject) }

func repairWipedObject(t *testing.T, f *fabric) {
	const shards = 2
	addrs, servers := f.addrs, f.hosts()
	var decisionRounds atomic.Int64
	c := f.connect(Options{Faults: 1, Readers: 2, Seed: 33, RoundHook: func(label string) {
		if label == "AREAD2" {
			decisionRounds.Add(1)
		}
	}})
	probe := func(addr string, reg int) (pw, w types.Pair, err error) {
		d := f.direct(c, addr)
		defer d.Close()
		return d.Probe(reg)
	}
	st, err := c.NewStore(StoreOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"alpha", "beta", "gamma", "delta"}
	w := c.Writer()
	rd, err := c.Reader(1)
	if err != nil {
		t.Fatal(err)
	}

	// Generation 1, then s1 goes stale (frozen below the final head).
	for _, k := range keys {
		if err := st.Put(k, k+"-gen1"); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Write("solo-gen1"); err != nil {
		t.Fatal(err)
	}
	servers[0].SetBehavior(&server.Stale{})
	// Generation 2 advances the head past s1's frozen state.
	for _, k := range keys {
		if err := st.Put(k, k+"-gen2"); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Write("solo-gen2"); err != nil {
		t.Fatal(err)
	}
	// Catch-up reads propagate write-backs to every live object.
	for _, k := range keys {
		if v, err := st.Get(k); err != nil || v != k+"-gen2" {
			t.Fatalf("get %s = %q, %v", k, v, err)
		}
	}
	head, err := rd.readPair()
	if err != nil || head.Val != "solo-gen2" {
		t.Fatalf("read = %v, %v", head, err)
	}
	// The machine hosting s3 dies; a blank replacement takes its address
	// (the operator gets to the repair long after the client's transport has
	// seen the old connection die: fabric.blank).
	f.blank(addrs[2], 3)
	if _, w3, err := probe(addrs[2], 0); err != nil || !w3.IsBottom() {
		t.Fatalf("replacement not blank: %v, %v", w3, err)
	}

	// Repair: quorum-read every hosted instance, install the certified
	// head into the replacement.
	decisionRounds.Store(0)
	repaired, err := c.Repair(3, shards)
	if err != nil {
		t.Fatal(err)
	}
	if len(repaired) != shards+1 {
		t.Fatalf("repaired %d instances, want %d", len(repaired), shards+1)
	}
	// What repair installs is decided by the full procedure: with s1 stale
	// and s3 blank, two w-reports of the head are one short of a fast hit.
	if n := decisionRounds.Load(); n != shards+1 {
		t.Errorf("repair ran %d decision rounds over %d instances", n, shards+1)
	}
	for _, r := range repaired {
		if r.Skipped || r.TS.IsZero() {
			t.Errorf("instance %d not repaired: %+v", r.Reg, r)
		}
	}
	if _, w3, err := probe(addrs[2], 0); err != nil || string(w3.Val) != "solo-gen2" {
		t.Fatalf("replacement reg 0 after repair = %v, %v", w3, err)
	}
	// A repaired object holds everything completed: on every instance, the
	// one register there is, at least where the correct peer s2 holds it (or
	// newer: the transfer read's own write-back may still be on its way to s2).
	for reg := 0; reg <= shards; reg++ {
		_, w2, err2 := probe(addrs[1], reg)
		_, w3, err3 := probe(addrs[2], reg)
		if err2 != nil || err3 != nil || w3.TS.Less(w2.TS) {
			t.Errorf("instance %d after repair: s3 holds %v, s2 %v (%v, %v)", reg, w3.TS, w2.TS, err2, err3)
		}
	}
	if others := doctorSweep(t, c, f.hosts(), shards); others != 0 {
		t.Errorf("the objects hold %d registers besides the shared ones", others)
	}

	// Re-establish the client's connection to the replacement object (over
	// sockets it still points at the dead predecessor; the first round redials).
	for _, k := range keys {
		for i := 0; i < 2; i++ {
			if v, err := st.Get(k); err != nil || v != k+"-gen2" {
				t.Fatalf("warm-up get %s = %q, %v", k, v, err)
			}
		}
	}
	if v, err := rd.Read(); err != nil || v != "solo-gen2" {
		t.Fatalf("warm-up read = %q, %v", v, err)
	}

	// The deployment must now survive losing s4: reads certify through the
	// repaired s3 (s1 is stale below the head, so s2 alone could not).
	f.kill(addrs[3])
	for _, k := range keys {
		if v, err := st.Get(k); err != nil || v != k+"-gen2" {
			t.Fatalf("post-repair get %s = %q, %v (repaired object not certifying)", k, v, err)
		}
	}
	if v, err := rd.Read(); err != nil || v != "solo-gen2" {
		t.Fatalf("post-repair read = %q, %v", v, err)
	}

	// Idempotence: repairing again is a harmless no-op on live state.
	if _, err := c.Repair(3, shards); err != nil {
		t.Fatalf("second repair: %v", err)
	}
}

// probe reads the raw shared-register state object addr holds for register
// instance reg (an operator's view: one object, no quorum).
func probe(addr string, reg int) (pw, w types.Pair, err error) {
	d := tcpnet.NewMux(nil).Direct(addr, types.Reader(1))
	defer d.Close()
	return d.Probe(reg)
}
