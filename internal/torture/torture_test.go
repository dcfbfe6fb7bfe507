package torture

import (
	"flag"
	"fmt"
	"testing"
)

// Replay and scale flags. Pass them after -args:
//
//	go test ./internal/torture/ -run TestTortureFull -v -args -torture.full
//	go test ./internal/torture/ -run TestTortureReplay -v -args -torture.seed=7 -torture.scenario=byzantine-mix -torture.mode=tcp
var (
	tortureSeed      = flag.Int64("torture.seed", 0, "replay: run TestTortureReplay with this schedule seed")
	tortureScenario  = flag.String("torture.scenario", string(PartitionHeal), "replay: schedule family")
	tortureMode      = flag.String("torture.mode", string(ModeLive), "replay: cluster mode (live | tcp)")
	tortureReadHeavy = flag.Bool("torture.readheavy", false, "replay: read-heavy workload (ReadFrac 0.85)")
	tortureFull      = flag.Bool("torture.full", false, "run the full-scale torture suite (make torture)")
)

// shortCfg is the CI-sized workload: all three scenarios in seconds, small
// enough for -race.
func shortCfg(sc Scenario, mode Mode, seed int64) Config {
	return Config{
		Seed: seed, Scenario: sc, Mode: mode,
		Clients: 32, OpsPerClient: 6, Keys: 16,
	}
}

// fullCfg is the acceptance-scale workload: ≥200 simulated clients per
// schedule (make torture / the nightly integration run).
func fullCfg(sc Scenario, mode Mode, seed int64) Config {
	return Config{
		Seed: seed, Scenario: sc, Mode: mode,
		Clients: 224, OpsPerClient: 8, Keys: 48,
	}
}

// runTorture runs one schedule and fails with the seed and a copy-pasteable
// replay command reproducing the identical event schedule.
func runTorture(t *testing.T, cfg Config, full bool) Result {
	t.Helper()
	cfg.Dir = t.TempDir()
	cfg.Logf = t.Logf
	res, err := Run(cfg)
	if err != nil {
		extraFlags := ""
		if cfg.ReadHeavy {
			extraFlags += " -torture.readheavy"
		}
		if full {
			extraFlags += " -torture.full"
		}
		t.Fatalf("torture failed (seed %d):\n%v\n\nreplay: go test ./internal/torture/ -run TestTortureReplay -v -args -torture.seed=%d -torture.scenario=%s -torture.mode=%s%s",
			cfg.Seed, err, cfg.Seed, cfg.Scenario, cfg.Mode, extraFlags)
	}
	if res.Checked == 0 {
		t.Fatalf("torture run checked 0 operations — the harness recorded nothing")
	}
	if cfg.Mode == ModeLive {
		// On the simulator a seed is the execution, not just the schedule:
		// run again, one event-trace digest.
		cfg.Logf = nil
		if again, err := Run(cfg); err != nil || again.Digest != res.Digest {
			t.Fatalf("seed %d ran two executions: event-trace digests %x and %x (%v)", cfg.Seed, res.Digest, again.Digest, err)
		}
	}
	return res
}

// TestTortureShort drives every scenario family at CI scale with fixed
// seeds, on the simulator and (all but partition+heal) against real TCP
// daemons with persist data dirs (make torture-short).
func TestTortureShort(t *testing.T) {
	if testing.Short() {
		t.Skip("torture needs real rounds; skipped in -short")
	}
	for _, tc := range []struct {
		sc        Scenario
		mode      Mode
		seed      int64
		readHeavy bool
	}{
		{PartitionHeal, ModeLive, 101, false},
		{ByzantineMix, ModeLive, 103, false},
		// Read-heavy Byzantine mix: fault windows land mostly on Gets, so
		// the adaptive read path (elision, coalescing, table cache) soaks
		// the chaos instead of the committer.
		{ByzantineMix, ModeLive, 104, true},
		// The same mix over real sockets, where a persistently lying object
		// gets its requests deferred (tcpnet's suspicion-ordered rounds: this
		// seed's false-elision window is long enough, see the logged count).
		{ByzantineMix, ModeTCP, 111, true},
		// Crash faults ending in machine replacement (wipe + quorum Repair
		// beside the workload), and membership churn: vacancy (leave → join)
		// and atomic live replace, the per-key histories spanning every epoch
		// change — over real daemons, and on the simulator, where the seed is
		// the execution.
		{KillRestartRepair, ModeTCP, 102, false},
		{JoinLeave, ModeTCP, 105, false},
		{ReplaceLive, ModeTCP, 106, false},
		{KillRestartRepair, ModeLive, 102, false},
		{JoinLeave, ModeLive, 105, false},
		{ReplaceLive, ModeLive, 106, false},
	} {
		name := string(tc.sc) + "/" + string(tc.mode)
		if tc.readHeavy {
			name += "/readheavy"
		}
		t.Run(name, func(t *testing.T) {
			cfg := shortCfg(tc.sc, tc.mode, tc.seed)
			cfg.ReadHeavy = tc.readHeavy
			res := runTorture(t, cfg, false)
			t.Logf("%d ops (%d failed mid-fault), %d keys, %d checker-accepted",
				res.Ops, res.Failed, res.Keys, res.Checked)
		})
	}
}

// TestEpochRetriedFlushResurrects runs the join-leave seeds whose histories
// were not atomic while a flush refused for a stale epoch — its PREWRITE
// complete, its WRITE taken by some objects — was retried from scratch: it
// re-issued its table at a NEW timestamp, a reader had returned the value at
// the first, a foreign write landed between the two, and the value came back.
// The retry finishes the pair it issued now (core.Writer.Resume;
// TestScriptedEpochRetryFinishesItsPair is the point, scripted). The seeds
// are those that failed with the validated flush path and those that failed
// without it before the fix; under -torture.full (make torture) every seed
// of 1..3,000 runs.
func TestEpochRetriedFlushResurrects(t *testing.T) {
	seeds := []int64{33, 153, 196, 261, 520, 720, 1057, 1344, 1468, 1527, 1847, 1871, 1990, 2341, 2769, 2803, 2929}
	if *tortureFull {
		seeds = seeds[:0]
		for seed := int64(1); seed <= 3000; seed++ {
			seeds = append(seeds, seed)
		}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			runTorture(t, shortCfg(JoinLeave, ModeLive, seed), false)
		})
	}
}

// TestTortureFull is the acceptance run (make torture): three distinct
// seeded schedules, each over ≥200 simulated clients, every per-key history
// decided by the multi-writer atomicity checker. Gated behind -torture.full
// so the default `go test ./...` stays fast.
func TestTortureFull(t *testing.T) {
	if !*tortureFull {
		t.Skip("full-scale torture runs under -args -torture.full (make torture)")
	}
	for _, tc := range []struct {
		sc        Scenario
		mode      Mode
		seed      int64
		readHeavy bool
	}{
		{PartitionHeal, ModeLive, 201, false},
		{KillRestartRepair, ModeTCP, 202, false},
		{ByzantineMix, ModeTCP, 203, false},
		{ByzantineMix, ModeLive, 204, true},
		{JoinLeave, ModeTCP, 205, false},
		{ReplaceLive, ModeTCP, 206, false},
		{KillRestartRepair, ModeLive, 207, false},
		{JoinLeave, ModeLive, 208, false},
		{ReplaceLive, ModeLive, 209, false},
	} {
		name := string(tc.sc) + "/" + string(tc.mode)
		if tc.readHeavy {
			name += "/readheavy"
		}
		t.Run(name, func(t *testing.T) {
			cfg := fullCfg(tc.sc, tc.mode, tc.seed)
			cfg.ReadHeavy = tc.readHeavy
			res := runTorture(t, cfg, true)
			t.Logf("%d ops (%d failed mid-fault), %d keys, %d checker-accepted",
				res.Ops, res.Failed, res.Keys, res.Checked)
		})
	}
}

// TestTortureReplay re-runs one seeded schedule from the command line — the
// command every torture failure prints. It first proves the plan is the
// identical event schedule (byte-for-byte), then runs it — in live mode
// twice (runTorture), proving the seed reproduces the execution.
func TestTortureReplay(t *testing.T) {
	if *tortureSeed == 0 {
		t.Skip("replay runs under -args -torture.seed=<seed> (printed by torture failures)")
	}
	mk := shortCfg
	if *tortureFull {
		mk = fullCfg
	}
	cfg := mk(Scenario(*tortureScenario), Mode(*tortureMode), *tortureSeed)
	cfg.ReadHeavy = *tortureReadHeavy
	a, err := Plan(cfg.Scenario, cfg.Seed, cfg.Clients*cfg.OpsPerClient, 3+1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Plan(cfg.Scenario, cfg.Seed, cfg.Clients*cfg.OpsPerClient, 3+1)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("replay planned a different schedule:\n%s\nvs\n%s", a, b)
	}
	t.Logf("replaying:\n%s", a)
	res := runTorture(t, cfg, *tortureFull)
	if cfg.Mode == ModeLive {
		t.Logf("event-trace digest %x, reproduced", res.Digest)
	}
	t.Logf("%d ops (%d failed mid-fault), %d keys, %d checker-accepted",
		res.Ops, res.Failed, res.Keys, res.Checked)
}
