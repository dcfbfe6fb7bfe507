package robustatomic

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"robustatomic/internal/config"
	"robustatomic/internal/sim"
	"robustatomic/internal/tcpnet"
	"robustatomic/internal/types"
)

// TestConfigQueryBootstrap pins the never-reconfigured baseline: the config
// register is unwritten, so the active configuration is the bootstrap one —
// epoch 1 over the Connect address list.
func TestConfigQueryBootstrap(t *testing.T) {
	eachFabric(t, 4, func(t *testing.T, f *fabric) {
		c := f.connect(Options{Faults: 1, Readers: 2, Seed: 71})
		cfg, err := c.ConfigQuery()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Epoch != 1 {
			t.Errorf("bootstrap epoch = %d, want 1", cfg.Epoch)
		}
		for i, a := range cfg.Addrs {
			if a != f.addrs[i] {
				t.Errorf("bootstrap slot %d = %q, want %q", i+1, a, f.addrs[i])
			}
		}
	})
}

// TestLiveReplace is the tentpole acceptance flow: a cluster serving a keyed
// Store has one object replaced live via Move — state migrated to a fresh
// daemon on a new port, the single-slot swap decided on the config register,
// the departed daemon killed — while the replacing client keeps operating,
// and a second client still holding the SUPERSEDED address list recovers
// transparently: its first round is refused with the typed redirect, it
// refetches the certified configuration from the hint, adopts it, and
// retries — zero failed operations either side.
func TestLiveReplace(t *testing.T) { eachFabric(t, 4, liveReplace) }

func liveReplace(t *testing.T, f *fabric) {
	const shards = 4
	c1 := f.connect(Options{Faults: 1, Readers: 3, WriterID: 1, Seed: 72})
	st1, err := c1.NewStore(StoreOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := st1.Put(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("pre-replace put: %v", err)
		}
	}

	// The replacement object: slot 2's identity, fresh address.
	s2b := f.fresh(2)

	cfg, migrated, err := c1.Move(2, s2b, shards)
	if err != nil {
		t.Fatalf("Move: %v", err)
	}
	if cfg.Epoch != 2 {
		t.Errorf("post-move epoch = %d, want 2", cfg.Epoch)
	}
	if got := cfg.Addrs[1]; got != s2b {
		t.Errorf("slot 2 = %q, want the replacement %q", got, s2b)
	}
	// Instance 0 was never written (no standalone Write); every shard was.
	if len(migrated) != shards+1 {
		t.Fatalf("migrated %d instances, want %d", len(migrated), shards+1)
	}
	for _, m := range migrated[1:] {
		if m.Skipped {
			t.Errorf("instance %d skipped, want transferred", m.Reg)
		}
	}

	// The departed object dies for real; the cluster must not notice.
	f.kill(f.addrs[1])
	for i := 0; i < 8; i++ {
		if err := st1.Put(fmt.Sprintf("k%d", i), fmt.Sprintf("w%d", i)); err != nil {
			t.Fatalf("post-replace put: %v", err)
		}
	}

	// The stale client: connected with the superseded list (dead old object
	// included). Every operation must succeed via the transparent redirect →
	// certified refetch → retry path.
	c2 := f.connect(Options{Faults: 1, Readers: 3, WriterID: 2, Seed: 73})
	st2, err := c2.NewStore(StoreOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("k%d", i)
		v, err := st2.Get(k)
		if err != nil {
			t.Fatalf("stale client get %s: %v", k, err)
		}
		if want := fmt.Sprintf("w%d", i); v != want {
			t.Errorf("stale client get %s = %q, want %q", k, v, want)
		}
	}
	if err := st2.Put("k0", "from-stale-client"); err != nil {
		t.Fatalf("stale client put: %v", err)
	}
	v, err := st1.Get("k0")
	if err != nil {
		t.Fatal(err)
	}
	if v != "from-stale-client" {
		t.Errorf("cross-client read = %q, want from-stale-client", v)
	}
	qcfg, err := c2.ConfigQuery()
	if err != nil {
		t.Fatal(err)
	}
	if qcfg.Epoch != 2 {
		t.Errorf("stale client's queried epoch = %d, want 2", qcfg.Epoch)
	}
}

// TestLeaveThenJoin exercises the vacancy flow: Leave vacates a slot (the
// vacancy spends the fault budget, operations continue on the survivors),
// Join admits a fresh daemon into it with migrated state, and the epoch
// advances once per transition.
func TestLeaveThenJoin(t *testing.T) { eachFabric(t, 4, leaveThenJoin) }

func leaveThenJoin(t *testing.T, f *fabric) {
	const shards = 2
	c := f.connect(Options{Faults: 1, Readers: 2, WriterID: 1, Seed: 74})
	st, err := c.NewStore(StoreOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("a", "1"); err != nil {
		t.Fatal(err)
	}

	cfg, err := c.Leave(3)
	if err != nil {
		t.Fatalf("Leave: %v", err)
	}
	if cfg.Epoch != 2 || cfg.Addrs[2] != config.Vacant {
		t.Fatalf("post-leave config = %v, want epoch 2 with slot 3 vacant", cfg)
	}
	f.kill(f.addrs[2])
	// A second Leave must refuse: two vacancies would exceed the fault budget.
	if _, err := c.Leave(1); err == nil {
		t.Fatal("second Leave succeeded, want refusal (vacancies exceed t)")
	}
	if err := st.Put("a", "2"); err != nil {
		t.Fatalf("put with one vacant slot: %v", err)
	}

	s3b := f.fresh(3)
	cfg, migrated, err := c.Join(s3b, shards)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if cfg.Epoch != 3 || cfg.Addrs[2] != s3b {
		t.Fatalf("post-join config = %v, want epoch 3 with slot 3 = %q", cfg, s3b)
	}
	if len(migrated) != shards+1 {
		t.Fatalf("migrated %d instances, want %d", len(migrated), shards+1)
	}
	// A further Join must refuse: no vacant slot remains (S is fixed).
	if _, _, err := c.Join(f.fresh(5), shards); err == nil {
		t.Fatal("Join into a full configuration succeeded, want refusal")
	}
	if err := st.Put("a", "3"); err != nil {
		t.Fatalf("put after rejoin: %v", err)
	}
	v, err := st.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if v != "3" {
		t.Errorf("get after rejoin = %q, want 3", v)
	}
}

// TestStoreShardCountCollision pins the reserved-register guard: shard i
// lives on register instance i+1, so a shard count reaching the config
// register is refused at construction.
func TestStoreShardCountCollision(t *testing.T) {
	addrs, _ := startServers(t, 4)
	c, err := Connect(addrs, Options{Faults: 1, Readers: 1, Seed: 75})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.NewStore(StoreOptions{Shards: config.Reg}); err == nil {
		t.Fatal("shard count colliding with the config register accepted, want error")
	}
}

// simDeployment is a cluster on the simulator with a keyed Store written by
// process 0: membership tests script it with the operator (process 1) and
// clients still holding the bootstrap address list (connect). run runs the
// given client bodies on the schedule, to completion.
type simDeployment struct {
	t    *testing.T
	sim  *sim.Sim
	root *Cluster
}

func newSimDeployment(t *testing.T, seed int64) *simDeployment {
	d := &simDeployment{t: t, sim: sim.New(sim.Config{Servers: 4})}
	t.Cleanup(d.sim.Close)
	d.sim.Seed(seed)
	var err error
	if d.root, err = NewSimCluster(d.sim, Options{Faults: 1, Readers: 4, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.root.Close)
	d.run(func() {
		st, err := d.root.NewStore(StoreOptions{Shards: 1})
		if err == nil {
			err = st.Put("k", "v")
		}
		if err != nil {
			t.Error(err)
		}
	})
	return d
}

func (d *simDeployment) connect(id int) *Cluster {
	c, err := d.root.Sibling(Options{Faults: 1, Readers: 4, WriterID: id})
	if err != nil {
		d.t.Fatal(err)
	}
	d.t.Cleanup(c.Close)
	return c
}

func (d *simDeployment) run(clients ...func()) {
	d.t.Helper()
	for _, f := range clients {
		d.sim.Go(f)
	}
	if err := d.sim.Run(nil); err != nil {
		d.t.Fatal(err)
	}
}

// replace Moves slot sid to a fresh object, as the operator; the departed
// object dies.
func (d *simDeployment) replace(operator *Cluster, sid int) {
	d.t.Helper()
	d.run(func() {
		fresh, _ := d.sim.AddHost(sid)
		if _, _, err := operator.Move(sid, fresh, 1); err != nil {
			d.t.Error(err)
		}
	})
	d.sim.Hosts()[sid-1].SetPartitioned(true)
}

// TestMoveFailurePathOnTheLinksClock: with every attempt to seed the decided
// configuration into the newcomer lost, Move gives up after three round
// deadlines and the two pauses between them — waited out on the LINK's clock:
// under the simulator at a closed-form virtual instant, the same in every
// run, in no real time at all (the pause used to be a time.Sleep: 400 ms of
// wall clock per failed Move, at an instant no seed replays).
func TestMoveFailurePathOnTheLinksClock(t *testing.T) {
	start := time.Now()
	for run := 0; run < 2; run++ {
		d := newSimDeployment(t, 7) // no latency set: only timers move the clock
		newcomer, _ := d.sim.AddHost(2)
		d.sim.Hold(func(m sim.Message) bool { return m.Addr == newcomer && m.Req.Reg == config.Reg })
		var err error
		d.run(func() { _, _, err = d.connect(1).Move(2, newcomer, 1) })
		if !errors.Is(err, ErrNewcomerUnseeded) {
			t.Fatalf("Move with every config seed lost = %v, want ErrNewcomerUnseeded", err)
		}
		if want := seedAttempts*5*time.Second + (seedAttempts-1)*seedRetryPause; d.sim.Now() != want {
			t.Errorf("run %d: Move gave up at virtual instant %v, want %v", run, d.sim.Now(), want)
		}
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("two failed Moves took %v of wall time: something waits on the wall clock", d)
	}
}

// TestForgedHintIsNotAskedBeforeTheView: a redirect hint is whatever one
// refuser chose to name. The refetch asks the current view first — the
// objects that refused can certify the epoch that made them — so a forged
// hint naming S addresses that lead nowhere costs not one send (over sockets:
// S dials, each up to its timeout, before the genuine view was even asked).
func TestForgedHintIsNotAskedBeforeTheView(t *testing.T) {
	d := newSimDeployment(t, 8)
	d.replace(d.connect(1), 2)
	stale := d.connect(2)
	forged := config.Config{Epoch: 9, Addrs: []string{"nowhere:1", "nowhere:2", "nowhere:3", "nowhere:4"}}.Encode()
	var err error
	d.run(func() { err = stale.refreshConfig(&tcpnet.WrongEpochError{Epoch: 9, Hints: []types.Value{forged}}) })
	if err != nil || stale.mux.Epoch() != 2 {
		t.Fatalf("refetch = %v at epoch %d, want the view's certified epoch 2", err, stale.mux.Epoch())
	}
	if n := d.sim.Stray(); n != 0 {
		t.Errorf("%d requests went to the forged hint's addresses, want none", n)
	}
}

// TestHintRescuesClientFarBehind pins why hints exist at all: a client two
// replacements behind holds four addresses of which two still answer — fewer
// than S−t, so no round of its view completes, the config read included — and
// the refusers' genuine hint is the only way it learns where the cluster went.
func TestHintRescuesClientFarBehind(t *testing.T) {
	d := newSimDeployment(t, 9)
	operator := d.connect(1)
	d.replace(operator, 2)
	d.replace(operator, 3)
	stale, hintless := d.connect(2), d.connect(3)
	d.run(func() {
		st, err := stale.NewStore(StoreOptions{Shards: 1})
		if err != nil {
			t.Errorf("client two epochs behind: %v", err)
			return
		}
		if v, err := st.Get("k"); err != nil || v != "v" {
			t.Errorf("client two epochs behind: Get = %q, %v", v, err)
		}
	})
	if stale.mux.Epoch() != 3 {
		t.Errorf("client two epochs behind adopted epoch %d, want 3", stale.mux.Epoch())
	}
	var err error
	d.run(func() { err = hintless.refreshConfig(&tcpnet.WrongEpochError{Epoch: 3}) })
	if err == nil {
		t.Error("a client two epochs behind refetched without a hint: its view cannot have certified anything")
	}
}
