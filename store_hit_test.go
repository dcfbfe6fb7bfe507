package robustatomic

import (
	"strings"
	"sync/atomic"
	"testing"

	"robustatomic/internal/obs"
)

// TestStoreGetRoundMix walks one shard through the three read paths — a hit,
// a decision, a write-back — with a foreign writer and a foreign reader in
// the picture, and pins rounds, counters and the traced dump of each. (In-process: every
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
	fallbacks := counterDelta("core_read_fallback_total")

	// Settled shard, own writer: one round, and the dump says why there is no
	// AREAD2.
	must(sa.Put("k", "v1"))
	if n, dump := get("v1"); n != 1 || !strings.Contains(dump, "AREAD1") || !strings.Contains(dump, " hit") || strings.Contains(dump, "AREAD2") {
		t.Errorf("settled Get took %d rounds, want 1 with AREAD1 … hit:\n%s", n, dump)
	}

	// A foreign write that completed everywhere is no miss: the objects'
	// copies of the table this process has never seen agree. (What they ship
	// is TestStoreGetShipsEachValueOnce's: in process every read goes out in
	// full.)
	if v, err := sb.Get("k"); err != nil || v != "v1" { // b attaches
		t.Fatalf("foreign Get = %q, %v", v, err)
	}
	must(sb.Put("k", "v2"))
	for i := 0; i < 2; i++ {
		if n, _ := get("v2"); n != 1 {
			t.Errorf("Get %d after a complete foreign Put: %d rounds, want 1", i, n)
		}
	}
	// (The counters are process-wide: four Gets, b's first among them — a
	// fresh handle hits like any other.)
	if oneRound() != 4 || missShared() != 0 || fallbacks() != 0 {
		t.Errorf("counters after four one-round reads: one_round=%d miss{shared}=%d fallback=%d", oneRound(), missShared(), fallbacks())
	}

	// A foreign write one object missed, read past another object: the
	// register misses (2 of 3 agree), its decision round cannot show S−t
	// w-reports either, and b's reader writes the pair back — into the shard's
	// register, where s4 missed it.
	must(a.Partition(4))
	must(sa.Put("k", "v3"))
	must(a.Heal(4))
	must(a.Partition(3))
	if v, err := sb.Get("k"); err != nil || v != "v3" {
		t.Fatalf("foreign Get = %q, %v", v, err)
	}
	if missShared() != 1 || fallbacks() != 1 {
		t.Errorf("miss{shared} = %d, fallback = %d after a read across an incomplete write, want 1 and 1", missShared(), fallbacks())
	}
	// So the register is settled again — on the same quorum: one round.
	if n, dump := get("v3"); n != 1 || !strings.Contains(dump, " hit") {
		t.Errorf("Get after the write-back took %d rounds, want 1 (AREAD1 … hit):\n%s", n, dump)
	}
	must(a.Heal(3))

	// An object forging a pair far above the head: a round that hears it
	// misses (2 of 3 agree), and the decision round rejects the forgery — whose
	// report, at or above the head, completes S−t w-reports: elided, 2 rounds.
	// A round closes on the first S−t replies and the send order rotates: one
	// round when s1 is the object left out.
	must(sa.Put("k", "v4"))
	must(a.InjectFault(1, "garbage"))
	one, two := 0, 0
	for i := 0; i < 8; i++ {
		n, dump := get("v4")
		switch {
		case n == 1 && strings.Contains(dump, " hit"):
			one++
		case n == 2 && strings.Contains(dump, " miss") && strings.Contains(dump, "AREAD2"):
			two++
		default:
			t.Errorf("Get beside a forger took %d rounds, want 1 (AREAD1 … hit) or 2 (AREAD1 … miss, AREAD2):\n%s", n, dump)
		}
	}
	if one == 0 || two == 0 {
		t.Errorf("%d of 8 Gets beside a forger took one round, %d two: s1 is left out of some rounds and heard in others", one, two)
	}
	must(a.ClearFault(1))
}
