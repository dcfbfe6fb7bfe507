package robustatomic

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"robustatomic/internal/server"
	"robustatomic/internal/types"
)

// TestProcessIdentity is the identity rule as a table: a deployment sized for
// R client processes accepts ids 0..R-1 and nothing else, through every
// constructor, process i is writer w_i and reader r_(i+1), and a sibling may
// not take its parent's id.
func TestProcessIdentity(t *testing.T) {
	addrs, _ := startServers(t, 4)
	for _, R := range []int{1, 2, 3} {
		parent, err := NewCluster(Options{Faults: 1, Readers: R + 1, WriterID: R})
		if err != nil {
			t.Fatalf("R+1 = %d, id %d: %v", R+1, R, err)
		}
		ctors := map[string]func(Options) (*Cluster, error){
			"NewCluster": NewCluster,
			"Connect":    func(o Options) (*Cluster, error) { return Connect(addrs, o) },
			"Sibling": func(o Options) (*Cluster, error) {
				o.Readers = R + 1 // Readers must match the parent's; id R is the parent's own
				return parent.Sibling(o)
			},
		}
		for name, ctor := range ctors {
			for id := -1; id <= R; id++ {
				c, err := ctor(Options{Faults: 1, Readers: R, WriterID: id})
				if id < 0 || id == R {
					if !errors.Is(err, ErrProcessID) {
						t.Errorf("%s(Readers %d, WriterID %d) = %v, want ErrProcessID", name, R, id, err)
					}
					if err == nil {
						c.Close()
					}
					continue
				}
				if err != nil {
					t.Errorf("%s(Readers %d, WriterID %d): %v", name, R, id, err)
					continue
				}
				if c.readerID() != id+1 {
					t.Errorf("%s: process %d reads as r%d, want r%d", name, id, c.readerID(), id+1)
				}
				if _, err := c.NewStore(StoreOptions{Shards: 1}); err != nil {
					t.Errorf("%s: process %d of %d got no Store: %v", name, id, R, err)
				}
				c.Close()
			}
		}
		parent.Close()
	}
}

// doctorSweep is storctl doctor's check — across every object, no register
// of instances 0..shards holds two values at one timestamp — and the
// one-register rule: it returns how many registers besides the shared one the
// objects hold on those instances (a read or a write-back addressed to any
// other would have created one), counted off each object's snapshot:
// server.Store's format is a version byte, a uvarint register count, then the
// registers in ascending order, the shared one (class RegWriter) first.
func doctorSweep(t *testing.T, c *Cluster, hosts []*server.Host, shards int) (others uint64) {
	t.Helper()
	if rep := c.Doctor(shards); len(rep.Diverged)+len(rep.Skipped) != 0 {
		t.Errorf("doctor: %+v", rep)
	}
	for _, h := range hosts {
		for inst := 0; inst <= shards; inst++ {
			snap, err := h.Store(inst).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			n, w := binary.Uvarint(snap[1:])
			if class, _ := binary.Uvarint(snap[1+w:]); n > 0 && types.RegClass(class) == types.RegWriter {
				n--
			}
			others += n
		}
	}
	return others
}

// leaveHeadOnTwo puts the shard register in the state where no read can
// elide its write-back: write() lands on objects 1–3 only, then object 3 is
// cut off, so the quorum {1, 2, 4} answers with two w-reports of the head.
// rounds counts the writing process's rounds (its RoundHook): a round returns
// on S−t replies, so object 4 is healed only once it has dropped a frame for
// every one of them. Object 3 stays partitioned; the caller heals it.
func leaveHeadOnTwo(t *testing.T, servers []*server.Host, rounds *atomic.Int64, write func() error) {
	t.Helper()
	servers[3].SetPartitioned(true)
	dropped, before := counterDelta("tcpnet_server_link_dropped_total"), rounds.Load()
	if err := write(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "object 4 to drop the write's frames", func() bool { return dropped() >= rounds.Load()-before })
	servers[3].SetPartitioned(false)
	servers[2].SetPartitioned(true)
}

// TestStoreUsesOneReaderIdentity: however many Gets a process runs at once,
// what they write back goes into the shard's one register — asserted on the
// objects: none holds any other — and concurrent Gets of a shard still share
// one read.
func TestStoreUsesOneReaderIdentity(t *testing.T) {
	const readers, id = 4, 2
	addrs, daemons := startServers(t, 4)
	servers := make([]*server.Host, len(daemons))
	for i, d := range daemons {
		servers[i] = d.Host
	}
	var rounds atomic.Int64
	c, err := Connect(addrs, Options{Faults: 1, Readers: readers, WriterID: id, Seed: 95, RoundHook: func(string) { rounds.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.NewStore(StoreOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	leaveHeadOnTwo(t, servers, &rounds, func() error { return st.Put("k", "v") })

	fallbacks := counterDelta("core_read_fallback_total")
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if v, err := st.Get("k"); err != nil || v != "v" {
					t.Errorf("Get = %q, %v", v, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if fallbacks() == 0 {
		t.Fatal("no Get paid a write-back: the scenario no longer forces one")
	}

	// K Gets arriving behind a read in flight are one read (the leader is
	// played by the test, as in TestStoreGetCoalescing).
	sh := st.c.shard(1)
	release, leading := make(chan struct{}), make(chan struct{})
	go sh.gets.Do(struct{}{}, func([]struct{}) (map[string]string, error) {
		close(leading)
		<-release
		return nil, nil
	})
	<-leading
	const K = 6
	elided, fellBack := counterDelta("core_read_elided_total"), counterDelta("core_read_fallback_total")
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := st.Get("k"); err != nil || v != "v" {
				t.Errorf("coalesced Get = %q, %v", v, err)
			}
		}()
	}
	waitUntil(t, "the Gets to join the pending batch", func() bool { return len(sh.gets.Pending()) == K })
	close(release)
	wg.Wait()
	if n := elided() + fellBack(); n != 1 {
		t.Errorf("%d coalesced Gets ran %d reads, want 1", K, n)
	}

	servers[2].SetPartitioned(false)
	if others := doctorSweep(t, c, servers, 1); others != 0 {
		t.Errorf("the objects hold %d registers besides the shared ones", others)
	}
}

// fromRecorder is an honest object that notes who its requests come from.
type fromRecorder struct {
	mu   sync.Mutex
	seen map[types.ProcID]int
}

func (r *fromRecorder) Reply(inner *server.Store, from types.ProcID, m types.Message) (types.Message, bool) {
	r.mu.Lock()
	r.seen[from]++
	r.mu.Unlock()
	return inner.Handle(from, m), true
}

// TestRepairBesideAReader pins Repair's identity: process B's transfer reads
// run as B's own reader. Process A's first Get of a shard the last Put left
// on two objects writes it back; the rest hit. Object 4 is then wiped and B
// repairs it. Every round B sends is from r2, the objects hold the shared
// register and nothing else, and no timestamp anywhere holds two values —
// with A idle during the repair (every assertion exact), and with A reading
// throughout it (make torture-short, under -race).
func TestRepairBesideAReader(t *testing.T) {
	for _, reading := range []bool{false, true} {
		t.Run(fmt.Sprintf("reading=%v", reading), func(t *testing.T) {
			eachFabric(t, 4, func(t *testing.T, f *fabric) { repairBesideAReader(t, f, reading) })
		})
	}
}

func repairBesideAReader(t *testing.T, f *fabric, reading bool) {
	const shards, readers = 1, 2
	addrs, servers := f.addrs, f.hosts()
	var rounds atomic.Int64
	connect := func(id int) *Cluster {
		return f.connect(Options{Faults: 1, Readers: readers, WriterID: id, Seed: int64(96 + id), RoundHook: func(string) { rounds.Add(1) }})
	}
	a, b := connect(0), connect(1)
	st, err := a.NewStore(StoreOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	leaveHeadOnTwo(t, servers, &rounds, func() error { return st.Put("k", "v") })
	get := func() {
		if v, err := st.Get("k"); err != nil || v != "v" {
			t.Errorf("A's Get = %q, %v", v, err)
		}
	}
	fallbacks := counterDelta("core_read_fallback_total")
	for i := 0; i < 8; i++ {
		get()
	}
	if n := fallbacks(); n != 1 {
		t.Fatalf("%d of A's 8 Gets paid a write-back, want the first alone: it completes the head on object 4", n)
	}
	headAt := func(sid int) types.Pair {
		d := f.direct(b, addrs[sid-1])
		defer d.Close()
		_, w, err := d.Probe(1)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	head := headAt(1)

	// Object 4 is wiped, and B repairs it; objects 1 and 2 record who asks.
	f.blank(addrs[3], 4)
	servers = f.hosts()
	rec := &fromRecorder{seen: map[types.ProcID]int{}}
	servers[0].SetBehavior(rec)
	servers[1].SetBehavior(rec)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for reading {
			select {
			case <-stop:
				return
			default:
				get()
			}
		}
	}()
	_, err = b.Repair(4, shards)
	close(stop)
	<-done
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	servers[0].SetBehavior(nil)
	servers[1].SetBehavior(nil)

	rec.mu.Lock()
	for from, n := range rec.seen {
		if from != types.Reader(2) && !(reading && from == types.Reader(1)) {
			t.Errorf("%d requests during B's Repair came from %v, want r2 only", n, from)
		}
	}
	if rec.seen[types.Reader(2)] == 0 {
		t.Error("B's Repair sent nothing as r2")
	}
	rec.mu.Unlock()

	servers[2].SetPartitioned(false)
	if others := doctorSweep(t, b, servers, shards); others != 0 {
		t.Errorf("the objects hold %d registers besides the shared ones", others)
	}
	// The head is where A's write-back left it, the repaired object included.
	for _, sid := range []int{1, 2, 4} {
		if w := headAt(sid); w != head {
			t.Errorf("object %d holds %v, want the head %v", sid, w.TS, head.TS)
		}
	}
}
