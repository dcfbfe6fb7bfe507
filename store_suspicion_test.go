package robustatomic

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"robustatomic/internal/checker"
	"robustatomic/internal/server"
	"robustatomic/internal/tcpnet"
	"robustatomic/internal/types"
)

// suspicionRig is a Store over real TCP objects, or the same objects mounted
// in this process, whose every operation is recorded twice: its rounds
// (Options.RoundHook; the sequential phases read them per op) and its place
// in its key's history (checker.CheckAtomicMW).
type suspicionRig struct {
	t     *testing.T
	hosts []*server.Host
	c     *Cluster
	st    *Store

	pad    string // appended to every value written
	mu     sync.Mutex
	labels []string
	hists  map[string]*checker.History
	vers   map[string]int
}

func newSuspicionRig(t *testing.T, inproc bool, faults, shards int, seed int64) *suspicionRig {
	r := &suspicionRig{t: t, hists: map[string]*checker.History{}, vers: map[string]int{}}
	opts := Options{Faults: faults, Readers: 2, Seed: seed, RoundHook: func(label string) {
		r.mu.Lock()
		r.labels = append(r.labels, label)
		r.mu.Unlock()
	}}
	var err error
	if inproc {
		if r.c, err = NewCluster(opts); err != nil {
			t.Fatal(err)
		}
		r.hosts = r.c.hosts()
	} else {
		var addrs []string
		for id := 1; id <= 3*faults+1; id++ {
			s, err := tcpnet.NewServer(id, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			r.hosts = append(r.hosts, s.Host)
			addrs = append(addrs, s.Addr())
		}
		if r.c, err = Connect(addrs, opts); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(r.c.Close)
	if r.st, err = r.c.NewStore(StoreOptions{Shards: shards}); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *suspicionRig) hist(key string) *checker.History {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hists[key] == nil {
		r.hists[key] = &checker.History{}
	}
	return r.hists[key]
}

// rounds returns (and forgets) the labels of the rounds run since the last
// call: one operation's, in the sequential phases.
func (r *suspicionRig) rounds() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	l := r.labels
	r.labels = nil
	return l
}

// put writes the key's next version (every value is written once).
func (r *suspicionRig) put(key string, proc types.ProcID) []string {
	r.t.Helper()
	r.mu.Lock()
	r.vers[key]++
	val := fmt.Sprintf("%s#%d%s", key, r.vers[key], r.pad)
	r.mu.Unlock()
	h := r.hist(key)
	id := h.Invoke(proc, checker.OpWrite, types.Value(val))
	if err := r.st.Put(key, val); err != nil {
		r.t.Errorf("Put %s: %v", key, err) // the write stays pending in the history
		return r.rounds()
	}
	h.Respond(id, types.Bottom)
	return r.rounds()
}

func (r *suspicionRig) get(key string, proc types.ProcID) []string {
	r.t.Helper()
	h := r.hist(key)
	id := h.Invoke(proc, checker.OpRead, types.Bottom)
	v, err := r.st.Get(key)
	if err != nil {
		r.t.Errorf("Get %s: %v", key, err)
		return r.rounds()
	}
	h.Respond(id, types.Value(v))
	return r.rounds()
}

// op runs a Put or a Get and holds it to the parent commit's worst case:
// suspicion may save rounds, it never adds any.
func (r *suspicionRig) op(key string, isPut bool) []string {
	r.t.Helper()
	if isPut {
		l := r.put(key, types.Writer)
		if len(l) > 5 {
			r.t.Errorf("Put %s took %d rounds %v, more than the 5 of a conflicting flush", key, len(l), l)
		}
		return l
	}
	l := r.get(key, types.Reader(1))
	if len(l) > 4 {
		r.t.Errorf("Get %s took %d rounds %v, more than the paper's 4", key, len(l), l)
	}
	return l
}

func (r *suspicionRig) suspects() []int {
	s := r.c.mux.Suspects()
	if len(s) > r.c.th.T {
		r.t.Errorf("suspects %v: more than t = %d", s, r.c.th.T)
	}
	return s
}

func (r *suspicionRig) checkAtomic() {
	r.t.Helper()
	for key, h := range r.hists {
		if err := checker.CheckAtomicMW(h); err != nil {
			r.t.Errorf("key %s: %v", key, err)
		}
	}
}

// TestSuspicionOrderedRounds is the t = 2 drill, the byz_t2_mixed adversary
// set on a running cluster: one object forges an inflated timestamp on every
// reply, one serves a frozen past. The mux must learn exactly those two from
// traffic, after which a Get costs 1 round and a Put 3; it must reinstate an
// object that stops lying, follow a lie that moves, never hold more than t,
// and never make an operation cost more rounds than it could before — every
// history atomic throughout. Over TCP and in process: the engine is the same.
func TestSuspicionOrderedRounds(t *testing.T) {
	t.Run("tcp", func(t *testing.T) { testSuspicionOrderedRounds(t, false) })
	t.Run("inproc", func(t *testing.T) { testSuspicionOrderedRounds(t, true) })
}

func testSuspicionOrderedRounds(t *testing.T, inproc bool) {
	r := newSuspicionRig(t, inproc, 2, 4, 19)
	keys := storeKeys(16)
	for _, k := range keys {
		r.put(k, types.Writer)
	}
	deferred := counterDelta("tcpnet_round_deferred_total")
	r.hosts[1].SetBehavior(server.Garbage{Level: 1 << 30, Val: "forged"})
	r.hosts[4].SetBehavior(&server.Stale{})

	n := 0
	for ; !reflect.DeepEqual(r.suspects(), []int{2, 5}); n++ {
		if n > 4000 {
			t.Fatalf("suspects %v after %d operations, want [2 5]", r.suspects(), n)
		}
		r.op(keys[n/2%len(keys)], n%2 == 0)
	}
	t.Logf("suspects [2 5] learned from %d operations", n)

	var gets, puts, oneRound, threeRounds int
	for i := 0; i < 400; i++ {
		isPut := i%2 == 0
		l := r.op(keys[i/2%len(keys)], isPut)
		switch {
		case isPut:
			puts++
			if strings.Join(l, " ") == "READ1 PREWRITE WRITE" {
				threeRounds++
			}
		default:
			gets++
			if len(l) == 1 {
				oneRound++
			}
		}
	}
	t.Logf("with s2 and s5 deferred: %d/%d Gets in 1 round, %d/%d Puts in READ1, PREWRITE, WRITE", oneRound, gets, threeRounds, puts)
	// Checked here, not once the suspects are learned: both runs may reach 16
	// on the same operation, and then no round has deferred anyone yet.
	if deferred() == 0 {
		t.Error("tcpnet_round_deferred_total did not move")
	}
	// All but the probes (one round in 64) and the odd hedged round.
	if oneRound*10 < gets*9 || threeRounds*10 < puts*9 {
		t.Errorf("%d/%d Gets took 1 round, %d/%d Puts READ1, PREWRITE, WRITE; want ≥ 90%%, ≥ 90%%", oneRound, gets, threeRounds, puts)
	}
	if s := r.suspects(); !reflect.DeepEqual(s, []int{2, 5}) {
		t.Errorf("suspects %v after the settled phase, want [2 5]", s)
	}

	// s5 stops lying (its true state kept advancing): an agreeing probe
	// reinstates it.
	r.hosts[4].SetBehavior(nil)
	probes := counterDelta("tcpnet_round_probe_total")
	for i := 0; !reflect.DeepEqual(r.suspects(), []int{2}); i++ {
		if probes() > 12 {
			t.Fatalf("suspects %v after %d probes, want s5 reinstated", r.suspects(), probes())
		}
		r.op(keys[i%len(keys)], false)
	}
	t.Logf("s5 reinstated after %d probes", probes())

	// The forger moves from s2 to s3: suspicion follows it. (s2 dropped every
	// write it acknowledged; how soon it is trusted again depends on how soon
	// traffic rewrites what it missed.)
	r.hosts[1].SetBehavior(nil)
	r.hosts[2].SetBehavior(server.Garbage{Level: 1 << 30, Val: "forged"})
	for n = 0; !contains(r.suspects(), 3); n++ {
		if n > 4000 {
			t.Fatalf("suspects %v after %d operations, want s3 among them", r.suspects(), n)
		}
		r.op(keys[n/2%len(keys)], n%2 == 0)
	}
	t.Logf("suspects %v %d operations after the forger moved to s3", r.suspects(), n)

	// Two writers and two readers at once, the forger deferred: no operation
	// fails, every history stays atomic.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if g < 2 {
					r.put(keys[(2*i+g)%len(keys)], types.WriterID(g)) // each key has one writer
				} else {
					r.get(keys[(i*7+g)%len(keys)], types.Reader(g))
				}
				r.suspects()
			}
		}()
	}
	wg.Wait()
	r.checkAtomic()
}

func contains(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

// muxLiar serves reads (the atomic read's query rounds — a bundle, or the
// bare READ of a round over the shared register alone) from a frozen past
// whenever lie says so, and is correct otherwise.
type muxLiar struct {
	stale  server.Stale
	writes int // mutating requests since the last such read
	reads  int // such reads so far
	lie    func(l *muxLiar) bool
}

func (l *muxLiar) Reply(inner *server.Store, from types.ProcID, m types.Message) (types.Message, bool) {
	switch {
	case server.Mutates(m):
		l.writes++
	case m.Kind == types.MsgMux || m.Kind == types.MsgRead1:
		l.reads++
		lie := l.lie(l)
		l.writes = 0
		if lie {
			return l.stale.Reply(inner, from, m)
		}
	}
	return server.Honest{}.Reply(inner, from, m)
}

// TestLiarsThatEvadeSuspicionCostNoMoreThanBefore: an object that lies on
// every other read is never suspected (a run, not a score), so every round
// is the parent commit's; one that lies until it is deferred, and turns
// honest for the reads it is then sent — the probes — is suspected, trusted,
// suspected again. Either way no operation exceeds the round counts it could
// reach before, none fails, and every history is atomic.
func TestLiarsThatEvadeSuspicionCostNoMoreThanBefore(t *testing.T) {
	for name, tc := range map[string]struct {
		lie     func(l *muxLiar) bool
		suspect bool
	}{
		"intermittent": {func(l *muxLiar) bool { return l.reads%2 == 0 }, false},
		// Deferred, an object sees writes only: several since its last read
		// mean the next read is a probe.
		"probe-aware": {func(l *muxLiar) bool { return l.writes < 12 }, true},
	} {
		t.Run(name, func(t *testing.T) {
			r := newSuspicionRig(t, false, 1, 2, 23)
			keys := storeKeys(8)
			for _, k := range keys {
				r.put(k, types.Writer)
			}
			deferred := counterDelta("tcpnet_round_deferred_total")
			suspected := counterDelta(`tcpnet_suspect_transitions_total{sid="2",to="suspect"}`)
			trusted := counterDelta(`tcpnet_suspect_transitions_total{sid="2",to="trusted"}`)
			r.hosts[1].SetBehavior(&muxLiar{lie: tc.lie})
			rng := rand.New(rand.NewSource(29))
			for i := 0; i < 3000; i++ {
				r.op(keys[rng.Intn(len(keys))], rng.Intn(2) == 0)
			}
			t.Logf("%d rounds deferred s2; it was suspected %d times and reinstated %d times", deferred(), suspected(), trusted())
			if !tc.suspect && deferred() != 0 {
				t.Errorf("%d rounds deferred an object that never lied %d times in a row", deferred(), 16)
			}
			if tc.suspect && (suspected() == 0 || trusted() == 0) {
				t.Errorf("suspected %d times, reinstated %d times; want the liar caught and let back in at least once", suspected(), trusted())
			}
			r.checkAtomic()
		})
	}
}

// TestHonestRacingFlushesDeferNobody is the false-positive bound, in the
// shape of the benchmark's bigtable_read: every object correct, Gets racing
// flushes of ONE large shard. Whichever object a flush reaches first is ahead
// of its peers until the flush completes and contradicts what reads decide
// meanwhile — on a fair share of them, never 16 in a row. A score that
// weighed dissent against agreement suspects it; the run rule must not: not
// one round deferred.
func TestHonestRacingFlushesDeferNobody(t *testing.T) {
	ops := 20000
	if testing.Short() {
		ops = 3000
	}
	r := newSuspicionRig(t, false, 1, 1, 31)
	keys := storeKeys(256)
	r.pad = strings.Repeat("x", 100)
	for _, k := range keys {
		r.put(k, types.Writer)
	}
	deferred := counterDelta("tcpnet_round_deferred_total")
	hedged := counterDelta("tcpnet_round_hedged_total")
	dissents := counterDelta(`tcpnet_object_dissent_total{sid="1",reason="w"}`)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(37 + g)))
			for i := 0; i < ops/2; i++ {
				k := rng.Intn(len(keys))
				if rng.Intn(10) == 0 {
					k -= k % 2
					r.put(keys[k+g], types.WriterID(g)) // each key has one writer
				} else {
					r.get(keys[k], types.Reader(g+1))
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("%d operations: s1 contradicted %d decided reads, %d rounds deferred, %d hedged", ops, dissents(), deferred(), hedged())
	if deferred() != 0 || hedged() != 0 {
		t.Errorf("%d rounds deferred and %d hedged on an honest cluster, want none", deferred(), hedged())
	}
	if s := r.suspects(); len(s) != 0 {
		t.Errorf("suspects %v on an honest cluster", s)
	}
	r.checkAtomic()
}

// TestInProcessReadsHearEveryObject: on the in-memory link replies arrive in
// send order and a round stops at Done, so with a fixed order object S would
// never be heard — and its lies never seen. The send order rotates: whichever
// object forges, a few Gets' worth of reads contradict it.
func TestInProcessReadsHearEveryObject(t *testing.T) {
	for sid := 1; sid <= 4; sid++ {
		c, err := NewCluster(Options{Faults: 1, Readers: 2, Seed: 43})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		st, err := c.NewStore(StoreOptions{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put("k", "v"); err != nil {
			t.Fatal(err)
		}
		var dissent []func() int64
		for _, reason := range []string{"w", "inflate"} {
			dissent = append(dissent, counterDelta(fmt.Sprintf(`tcpnet_object_dissent_total{sid="%d",reason=%q}`, sid, reason)))
		}
		if err := c.InjectFault(sid, "garbage"); err != nil {
			t.Fatal(err)
		}
		seen := int64(0)
		for i := 0; i < 32 && seen == 0; i++ {
			if v, err := st.Get("k"); err != nil || v != "v" {
				t.Fatalf("s%d forging: Get = %q, %v", sid, v, err)
			}
			for _, d := range dissent {
				seen += d()
			}
		}
		if seen == 0 {
			t.Errorf("s%d forged its reply to 32 Gets and no read contradicted it: it is never heard", sid)
		}
	}
}
