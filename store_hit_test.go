package robustatomic

import (
	"strings"
	"sync/atomic"
	"testing"

	"robustatomic/internal/obs"
)

// TestStoreGetRoundMix walks one shard through the read paths the fast hit
// separates, with a foreign writer and a foreign reader in the picture, and
// pins rounds, counters and the traced dump of each. (In-process: every
// reachable object answers every round before it returns, so the counts are
// exact.)
func TestStoreGetRoundMix(t *testing.T) {
	var rounds int64
	tr := obs.NewTracer(64, 1)
	a, err := NewCluster(Options{Faults: 1, Readers: 2, Seed: 91, Tracer: tr,
		RoundHook: func(string) { atomic.AddInt64(&rounds, 1) }})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := a.Sibling(Options{Faults: 1, Readers: 2, WriterID: 1, Seed: 92})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	sa, err := a.NewStore(StoreOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.NewStore(StoreOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	// get runs sa.Get and reports its rounds and its traced dump.
	get := func(want string) (int64, string) {
		t.Helper()
		atomic.StoreInt64(&rounds, 0)
		if v, err := sa.Get("k"); err != nil || v != want {
			t.Fatalf("Get = %q, %v; want %q", v, err, want)
		}
		ops := tr.Recent()
		return atomic.LoadInt64(&rounds), ops[len(ops)-1].Format()
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	oneRound := counterDelta("core_read_one_round_total")
	missShared := counterDelta(`core_read_hit_miss_total{reg="shared"}`)
	missWB := counterDelta(`core_read_hit_miss_total{reg="writeback"}`)

	// Settled shard, own writer: one round, and the dump says why there is no
	// AREAD2 (3 registers: the shard's and two readers' write-back ones).
	must(sa.Put("k", "v1"))
	if n, dump := get("v1"); n != 1 || !strings.Contains(dump, "AREAD1") || !strings.Contains(dump, "hit 3/3") || strings.Contains(dump, "AREAD2") {
		t.Errorf("settled Get took %d rounds, want 1 with AREAD1 … hit 3/3:\n%s", n, dump)
	}

	// A foreign write that completed everywhere is no miss: the objects ship
	// the table this process has never seen, once, and their copies agree.
	if v, err := sb.Get("k"); err != nil || v != "v1" { // b attaches
		t.Fatalf("foreign Get = %q, %v", v, err)
	}
	must(sb.Put("k", "v2"))
	sent := counterDelta("server_read_values_sent_total")
	if n, _ := get("v2"); n != 1 || sent() != 4 {
		t.Errorf("Get after a complete foreign Put: %d rounds, %d values shipped; want 1 round, 4 values", n, sent())
	}
	if n, _ := get("v2"); n != 1 || sent() != 4 {
		t.Errorf("next Get: %d rounds, %d values shipped in total; want 1 round, nothing more", n, sent())
	}
	// (The counters are process-wide: b's Get after its recovery read is the
	// fourth.)
	if oneRound() != 4 || missShared() != 0 || missWB() != 0 {
		t.Errorf("counters after four one-round Gets: one_round=%d miss{shared}=%d miss{writeback}=%d", oneRound(), missShared(), missWB())
	}

	// A foreign write one object missed, read past another object: the shard
	// register misses (2 of 3 agree), its decision round cannot show S−t
	// w-reports either, and b's reader pays the write-back — which s3 misses.
	must(a.Partition(4))
	must(sa.Put("k", "v3"))
	must(a.Heal(4))
	must(a.Partition(3))
	if v, err := sb.Get("k"); err != nil || v != "v3" {
		t.Fatalf("foreign Get = %q, %v", v, err)
	}
	must(a.Heal(3))
	if missShared() != 1 {
		t.Errorf("miss{shared} = %d after a read across an incomplete write, want 1", missShared())
	}

	// Reader 2's write-back register now differs on s3. With everything else
	// settled again and one object unreachable, that register alone misses:
	// AREAD2 carries it and nothing else, the shard register's own hit is the
	// elision evidence — two rounds.
	must(sa.Put("k", "v4"))
	must(a.Partition(1))
	n, dump := get("v4")
	if n != 2 || !strings.Contains(dump, "hit 2/3") || !strings.Contains(dump, "AREAD2") {
		t.Errorf("Get with one write-back register split took %d rounds, want 2 (AREAD1 … hit 2/3, AREAD2):\n%s", n, dump)
	}
	if i := strings.Index(dump, "AREAD2"); i >= 0 && (!strings.Contains(dump[i:], "MUX[REGr2]") || strings.Contains(dump[i:], "REGw")) {
		t.Errorf("AREAD2 carried more than the register that missed:\n%s", dump[i:])
	}
	if missWB() != 1 || missShared() != 1 {
		t.Errorf("miss{writeback}=%d miss{shared}=%d, want 1 and 1", missWB(), missShared())
	}
	// All four objects answering again, three of them agree on every register
	// — but a round closes on the first S−t replies, and the send order
	// rotates: one round when s3 is the object left out, two when it is heard.
	must(a.Heal(1))
	one := 0
	for i := 0; i < 8; i++ {
		n, dump := get("v4")
		if n > 2 {
			t.Errorf("healed Get took %d rounds, want 1 or 2:\n%s", n, dump)
		}
		if n == 1 {
			one++
		}
	}
	if one == 0 || one == 8 {
		t.Errorf("%d of 8 healed Gets took one round: s3 is left out of some rounds and heard in others", one)
	}
}
