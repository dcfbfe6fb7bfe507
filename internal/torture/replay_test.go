package torture

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// replayed runs seed's execution: 2 processes × 8 client goroutines doing
// Put/Get/Delete on 4 contended shards of a cluster under the simulator,
// through one Byzantine window, one partition window and one netem window
// with delay. It returns the simulator's event-trace digest and the per-key
// histories, rendered.
func replayed(t *testing.T, seed int64) (uint64, string) {
	t.Helper()
	cfg := Config{Seed: seed, Mode: ModeLive, Clients: 16, OpsPerClient: 8, Keys: 4, Shards: 4}
	cfg.defaults()
	sched := Schedule{Seed: seed, Scenario: "replay", Events: []Event{
		{At: 6, Kind: EvChaos, Sid: 1 + int(seed%4), Behavior: "equivocate"},
		{At: 32, Kind: EvClearChaos, Sid: 1 + int(seed%4)},
		{At: 44, Kind: EvPartition, Sid: 1 + int((seed+1)%4)},
		{At: 70, Kind: EvHeal, Sid: 1 + int((seed+1)%4)},
		{At: 80, Kind: EvNetem, Sid: 1 + int((seed+2)%4), Drop: 0.3, Dup: 0.1, DelayUS: 1500},
		{At: 110, Kind: EvClearNetem, Sid: 1 + int((seed+2)%4)},
	}}
	res, hists, err := execute(cfg, sched)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	keys := make([]string, 0, len(hists))
	for k := range hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&out, "%s:\n", k)
		for _, op := range hists[k].Ops() {
			fmt.Fprintf(&out, "  %s\n", op)
		}
	}
	return res.Digest, out.String()
}

// TestSeedReplaysExecution: one seed is one execution of the shipped stack —
// run twice, a seed yields the identical event trace and identical per-key
// histories, every one of them checker-clean, and the next seed a different
// execution. 200 seeds (20 under -short, 5,000 under -torture.full).
func TestSeedReplaysExecution(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 20
	} else if *tortureFull {
		seeds = 5000
	}
	var prev uint64
	for seed := int64(1); seed <= seeds; seed++ {
		digest, hist := replayed(t, seed)
		if again, histAgain := replayed(t, seed); again != digest || histAgain != hist {
			t.Fatalf("seed %d ran two executions: event-trace digests %x and %x, histories\n%s\nand\n%s", seed, digest, again, hist, histAgain)
		}
		if digest == prev {
			t.Fatalf("seeds %d and %d ran the same execution (digest %x)", seed-1, seed, digest)
		}
		prev = digest
	}
}
