package torture

import (
	"testing"
)

// TestPlanDeterministic: the schedule is a pure function of its inputs —
// the replay guarantee the harness's failure messages promise.
func TestPlanDeterministic(t *testing.T) {
	for _, sc := range Scenarios() {
		for _, mode := range ScenarioModes(sc) {
			a, err := Plan(sc, mode, 42, 1000, 4)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Plan(sc, mode, 42, 1000, 4)
			if err != nil {
				t.Fatal(err)
			}
			if a.String() != b.String() {
				t.Fatalf("%s/%s: same seed planned different schedules:\n%s\nvs\n%s", sc, mode, a, b)
			}
			c, err := Plan(sc, mode, 43, 1000, 4)
			if err != nil {
				t.Fatal(err)
			}
			if a.String() == c.String() {
				t.Fatalf("%s/%s: seeds 42 and 43 planned the identical schedule", sc, mode)
			}
		}
	}
}

// TestPlanShape: events are ordered, stay inside the first 90% of the
// workload, target valid objects, and never fault two objects at once (the
// t=1 budget every scenario certifies against).
func TestPlanShape(t *testing.T) {
	opens := map[EventKind]bool{EvPartition: true, EvKill: true, EvWipe: true, EvChaos: true, EvNetem: true, EvLeave: true}
	// An atomic replace is a point event: the slot stays populated, so it
	// neither opens nor closes a fault window.
	neutral := map[EventKind]bool{EvReplace: true}
	// Link delay and batch chaos run on every runtime: some seed of the range
	// plans each into a live schedule.
	liveDelay, liveBatchChaos := false, false
	defer func() {
		if !liveDelay || !liveBatchChaos {
			t.Errorf("live plans over seeds 1..20: delayed netem window %v, batch-chaos window %v; want both", liveDelay, liveBatchChaos)
		}
	}()
	for _, sc := range Scenarios() {
		for _, mode := range ScenarioModes(sc) {
			for seed := int64(1); seed <= 20; seed++ {
				sched, err := Plan(sc, mode, seed, 600, 4)
				if err != nil {
					t.Fatal(err)
				}
				if len(sched.Events) == 0 {
					t.Fatalf("%s/%s seed %d: empty schedule", sc, mode, seed)
				}
				faulted := 0
				for i, ev := range sched.Events {
					if mode == ModeLive {
						liveDelay = liveDelay || sc == PartitionHeal && ev.DelayUS > 0
						liveBatchChaos = liveBatchChaos || sc == ByzantineMix && ev.Behavior == "batch-chaos"
					}
					if i > 0 && ev.At < sched.Events[i-1].At {
						t.Fatalf("%s/%s seed %d: events out of order:\n%s", sc, mode, seed, sched)
					}
					if ev.At < 1 || ev.At >= 540 {
						t.Fatalf("%s/%s seed %d: event outside the fault span: %s", sc, mode, seed, ev)
					}
					if ev.Sid < 1 || ev.Sid > 4 {
						t.Fatalf("%s/%s seed %d: bad object id: %s", sc, mode, seed, ev)
					}
					switch {
					case opens[ev.Kind]:
						faulted++
					case neutral[ev.Kind]:
					default:
						faulted--
					}
					if faulted > 1 {
						t.Fatalf("%s/%s seed %d: two objects faulted at once:\n%s", sc, mode, seed, sched)
					}
				}
				if faulted != 0 {
					t.Fatalf("%s/%s seed %d: schedule ends with an open fault window:\n%s", sc, mode, seed, sched)
				}
			}
		}
	}
}

// TestPlanRepairOnlyOnTCP: the wipe + quorum-repair window needs real data
// dirs, so it must appear on tcp schedules (where the last window is the
// machine replacement) and never on live ones.
func TestPlanRepairOnlyOnTCP(t *testing.T) {
	count := func(sched Schedule, k EventKind) int {
		n := 0
		for _, ev := range sched.Events {
			if ev.Kind == k {
				n++
			}
		}
		return n
	}
	tcp, err := Plan(KillRestartRepair, ModeTCP, 7, 600, 4)
	if err != nil {
		t.Fatal(err)
	}
	if count(tcp, EvWipe) != 1 || count(tcp, EvRepair) != 1 {
		t.Fatalf("tcp kill-restart-repair schedule lacks the wipe+repair window:\n%s", tcp)
	}
	lv, err := Plan(KillRestartRepair, ModeLive, 7, 600, 4)
	if err != nil {
		t.Fatal(err)
	}
	if count(lv, EvWipe) != 0 || count(lv, EvRepair) != 0 {
		t.Fatalf("live schedule contains wipe/repair (no data dirs to wipe):\n%s", lv)
	}
}

// TestPlanReconfigTCPOnly: the membership scenarios need real daemons (the
// epoch plane lives on the wire protocol), so planning them against the
// in-process runtime must refuse, and tcp schedules must actually carry the
// reconfiguration events.
func TestPlanReconfigTCPOnly(t *testing.T) {
	for _, sc := range []Scenario{JoinLeave, ReplaceLive} {
		if _, err := Plan(sc, ModeLive, 7, 600, 4); err == nil {
			t.Errorf("%s planned against the live runtime, want refusal", sc)
		}
		sched, err := Plan(sc, ModeTCP, 7, 600, 4)
		if err != nil {
			t.Fatal(err)
		}
		got := map[EventKind]int{}
		for _, ev := range sched.Events {
			got[ev.Kind]++
		}
		switch sc {
		case JoinLeave:
			if got[EvLeave] == 0 || got[EvLeave] != got[EvJoin] {
				t.Errorf("%s schedule has %d leaves, %d joins; want paired ≥1:\n%s", sc, got[EvLeave], got[EvJoin], sched)
			}
		case ReplaceLive:
			if got[EvReplace] < 2 {
				t.Errorf("%s schedule has %d replaces, want ≥2:\n%s", sc, got[EvReplace], sched)
			}
		}
	}
}
