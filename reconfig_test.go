package robustatomic

import (
	"fmt"
	"testing"

	"robustatomic/internal/config"
	"robustatomic/internal/tcpnet"
)

// TestConfigQueryBootstrap pins the never-reconfigured baseline: the config
// register is unwritten, so the active configuration is the bootstrap one —
// epoch 1 over the Connect address list.
func TestConfigQueryBootstrap(t *testing.T) {
	addrs, _ := startServers(t, 4)
	c, err := Connect(addrs, Options{Faults: 1, Readers: 2, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cfg, err := c.ConfigQuery()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Epoch != 1 {
		t.Errorf("bootstrap epoch = %d, want 1", cfg.Epoch)
	}
	for i, a := range cfg.Addrs {
		if a != addrs[i] {
			t.Errorf("bootstrap slot %d = %q, want %q", i+1, a, addrs[i])
		}
	}
}

// TestLiveReplace is the tentpole acceptance flow: a cluster serving a keyed
// Store has one object replaced live via Move — state migrated to a fresh
// daemon on a new port, the single-slot swap decided on the config register,
// the departed daemon killed — while the replacing client keeps operating,
// and a second client still holding the SUPERSEDED address list recovers
// transparently: its first round is refused with the typed redirect, it
// refetches the certified configuration from the hint, adopts it, and
// retries — zero failed operations either side.
func TestLiveReplace(t *testing.T) {
	const shards = 4
	addrs, servers := startServers(t, 4)
	c1, err := Connect(addrs, Options{Faults: 1, Readers: 3, WriterID: 1, Seed: 72})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	st1, err := c1.NewStore(StoreOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := st1.Put(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("pre-replace put: %v", err)
		}
	}

	// The replacement daemon: slot 2's object identity, fresh port.
	s2b, err := tcpnet.NewServer(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2b.Close)

	cfg, migrated, err := c1.Move(2, s2b.Addr(), shards)
	if err != nil {
		t.Fatalf("Move: %v", err)
	}
	if cfg.Epoch != 2 {
		t.Errorf("post-move epoch = %d, want 2", cfg.Epoch)
	}
	if got := cfg.Addrs[1]; got != s2b.Addr() {
		t.Errorf("slot 2 = %q, want the replacement %q", got, s2b.Addr())
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

	// The departed daemon dies for real; the cluster must not notice.
	servers[1].Close()
	for i := 0; i < 8; i++ {
		if err := st1.Put(fmt.Sprintf("k%d", i), fmt.Sprintf("w%d", i)); err != nil {
			t.Fatalf("post-replace put: %v", err)
		}
	}

	// The stale client: connected with the superseded list (dead old daemon
	// included). Every operation must succeed via the transparent redirect →
	// certified refetch → retry path.
	c2, err := Connect(addrs, Options{Faults: 1, Readers: 3, WriterID: 2, Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
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
func TestLeaveThenJoin(t *testing.T) {
	const shards = 2
	addrs, servers := startServers(t, 4)
	c, err := Connect(addrs, Options{Faults: 1, Readers: 2, WriterID: 1, Seed: 74})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
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
	servers[2].Close()
	// A second Leave must refuse: two vacancies would exceed the fault budget.
	if _, err := c.Leave(1); err == nil {
		t.Fatal("second Leave succeeded, want refusal (vacancies exceed t)")
	}
	if err := st.Put("a", "2"); err != nil {
		t.Fatalf("put with one vacant slot: %v", err)
	}

	s3b, err := tcpnet.NewServer(3, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s3b.Close)
	cfg, migrated, err := c.Join(s3b.Addr(), shards)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if cfg.Epoch != 3 || cfg.Addrs[2] != s3b.Addr() {
		t.Fatalf("post-join config = %v, want epoch 3 with slot 3 = %q", cfg, s3b.Addr())
	}
	if len(migrated) != shards+1 {
		t.Fatalf("migrated %d instances, want %d", len(migrated), shards+1)
	}
	// A further Join must refuse: no vacant slot remains (S is fixed).
	s6, err := tcpnet.NewServer(5, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s6.Close)
	if _, _, err := c.Join(s6.Addr(), shards); err == nil {
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
