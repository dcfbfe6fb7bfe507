package robustatomic

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"robustatomic/internal/persist"
	"robustatomic/internal/tcpnet"
	"robustatomic/internal/types"
)

// TestPutBytesOnTheWire counts — it times nothing — what one Put of one key
// moves and logs once its shard holds a 256-key, 36 KB table: over loopback
// sockets to S = 4 durable objects, the three rounds send ≤ 2 KB in all
// (≈ 290 KB at b63f873: the table eight times) and the objects log ≤ 400 B
// each (the PREWRITE's edit and a reference; 72 KB at b63f873). An object
// that lost everything — wiped, with or without a Repair behind it — is sent
// the table once, by the first Put that hears it, and nothing but edits after.
func TestPutBytesOnTheWire(t *testing.T) {
	dir := t.TempDir()
	servers := make([]*tcpnet.Server, 4)
	addrs := make([]string, 4)
	start := func(id int, addr string) {
		opts := tcpnet.ServerOptions{DataDir: filepath.Join(dir, fmt.Sprintf("s%d", id)), Fsync: persist.FsyncOff}
		servers[id-1] = restartDaemon(t, id, addr, opts)
		addrs[id-1] = servers[id-1].Addr()
	}
	for id := 1; id <= 4; id++ {
		start(id, "127.0.0.1:0")
	}
	t.Cleanup(func() {
		for _, s := range servers {
			s.Close()
		}
	})
	c, err := Connect(addrs, Options{Faults: 1, Readers: 2, Seed: 30})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	st, err := c.NewStore(StoreOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	value := func(i, gen int) string { return fmt.Sprintf("%03d.%d.", i, gen) + strings.Repeat("v", 126) }
	for i := 0; i < 256; i++ {
		if err := st.Put(fmt.Sprintf("key-%03d", i), value(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	head := func(id int) types.Pair { // the shard register's w at object id
		regs, err := c.Probe(id, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range regs {
			if r.Reg == 1 && r.Reader == 0 {
				return r.W
			}
		}
		t.Fatalf("probe of object %d shows no shard register", id)
		return types.Pair{}
	}
	waitUntil(t, "the preload to reach every object", func() bool {
		return head(1).TS.Seq == 256 && head(2).TS.Seq == 256 && head(3).TS.Seq == 256 && head(4).TS.Seq == 256
	})
	table := len(head(2).Val)
	if table < 35<<10 || table > 37<<10 {
		t.Fatalf("the shard's table is %d bytes, want ≈ 36 KB", table)
	}

	// quiesce waits out the frames of earlier rounds: a round returns at its
	// quorum, and the bytes for the object it did not wait for are counted
	// when the connection's writer gets to them.
	quiesce := func() {
		tx := counterDelta("tcpnet_client_tx_bytes_total")
		for was := int64(-1); was != tx(); time.Sleep(2 * time.Millisecond) {
			was = tx()
		}
	}
	// put runs one 1-key Put and returns what it sent and what the objects
	// logged for it, once every object has logged both its phases.
	gen := 0
	put := func() (tx, wal int64) {
		t.Helper()
		gen++
		quiesce()
		sent, logged, appends := counterDelta("tcpnet_client_tx_bytes_total"), counterDelta("persist_wal_bytes_total"), counterDelta("persist_wal_appends_total")
		if err := st.Put("key-128", value(128, gen)); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "every object to log both write phases", func() bool { return appends() >= 8 })
		return sent(), logged()
	}
	put() // the last of the preload may still be on its way to the fourth object
	if tx, wal := put(); tx > 2<<10 || wal > 4*400 {
		t.Errorf("a 1-key Put of a %d-byte table sent %d bytes (want ≤ 2 KB) and the four objects logged %d (want ≤ 400 each)", table, tx, wal)
	}

	// wipe replaces object 3's machine: everything it held is gone.
	wipe := func() {
		t.Helper()
		lost := counterDelta("tcpnet_conn_lost_total")
		servers[2].Close()
		waitUntil(t, "the client to notice the connection die", func() bool { return lost() > 0 })
		if err := os.RemoveAll(filepath.Join(dir, "s3")); err != nil {
			t.Fatal(err)
		}
		start(3, addrs[2])
	}
	// heard runs one Put that cannot complete without object 3's answers
	// (object 1's come too late meanwhile), so the Put hears it whatever it says.
	heard := func() int64 {
		t.Helper()
		servers[0].SetNetem(nil, 0, 0, 30*time.Millisecond)
		defer servers[0].SetNetem(nil, 0, 0, 0)
		gen++
		quiesce()
		sent := counterDelta("tcpnet_client_tx_bytes_total")
		if err := st.Put("key-128", value(128, gen)); err != nil {
			t.Fatal(err)
		}
		tx := sent()
		if got, want := head(3), head(2); got != want {
			t.Fatalf("object 3 after the first Put that heard it holds %v, the others %v", got.TS, want.TS)
		}
		return tx
	}
	catchUp := func(what string, tables int64) {
		t.Helper()
		if tx := heard(); tx < tables*int64(table) || tx > tables*int64(table)+4<<10 {
			t.Errorf("%s: the first Put that heard the object sent %d bytes, want %d table(s) of %d and an edit", what, tx, tables, table)
		}
		if tx, _ := put(); tx > 2<<10 {
			t.Errorf("%s: the Put after the catch-up sent %d bytes, want ≤ 2 KB", what, tx)
		}
	}
	wipe()
	catchUp("a blank replacement", 1)
	wipe()
	if _, err := c.Repair(3, 1); err != nil {
		t.Fatal(err)
	}
	// Repair installed the certified head, which is the pair the next edit
	// derives from: the repaired object needs no table at all.
	catchUp("a repaired replacement", 0)
}
