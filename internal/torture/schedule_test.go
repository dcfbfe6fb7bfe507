package torture

import (
	"testing"
)

// TestPlanDeterministic: the schedule is a pure function of its inputs —
// the replay guarantee the harness's failure messages promise.
func TestPlanDeterministic(t *testing.T) {
	for _, sc := range Scenarios() {
		a, err := Plan(sc, 42, 1000, 4)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Plan(sc, 42, 1000, 4)
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("%s: same seed planned different schedules:\n%s\nvs\n%s", sc, a, b)
		}
		c, err := Plan(sc, 43, 1000, 4)
		if err != nil {
			t.Fatal(err)
		}
		if a.String() == c.String() {
			t.Fatalf("%s: seeds 42 and 43 planned the identical schedule", sc)
		}
	}
}

// TestPlanShape: every scenario plans — for whichever runtime: a plan does not
// know — and its events are ordered, stay inside the first 90% of the
// workload, target valid objects, and never fault two objects at once (the
// t=1 budget every scenario certifies against); each family carries the events
// it is named for.
func TestPlanShape(t *testing.T) {
	opens := map[EventKind]bool{EvPartition: true, EvKill: true, EvWipe: true, EvChaos: true, EvNetem: true, EvLeave: true}
	// An atomic replace is a point event: the slot stays populated, so it
	// neither opens nor closes a fault window.
	neutral := map[EventKind]bool{EvReplace: true}
	// Link delay and a flaky object (which drops sub-replies out of batched
	// frames too) run on every runtime: some seed of the range plans each.
	delay, flaky := false, false
	for _, sc := range Scenarios() {
		for seed := int64(1); seed <= 20; seed++ {
			sched, err := Plan(sc, seed, 600, 4)
			if err != nil {
				t.Fatal(err)
			}
			if len(sched.Events) == 0 {
				t.Fatalf("%s seed %d: empty schedule", sc, seed)
			}
			faulted := 0
			got := map[EventKind]int{}
			for i, ev := range sched.Events {
				got[ev.Kind]++
				delay = delay || sc == PartitionHeal && ev.DelayUS > 0
				flaky = flaky || sc == ByzantineMix && ev.Behavior == "flaky"
				if i > 0 && ev.At < sched.Events[i-1].At {
					t.Fatalf("%s seed %d: events out of order:\n%s", sc, seed, sched)
				}
				if ev.At < 1 || ev.At >= 540 {
					t.Fatalf("%s seed %d: event outside the fault span: %s", sc, seed, ev)
				}
				if ev.Sid < 1 || ev.Sid > 4 {
					t.Fatalf("%s seed %d: bad object id: %s", sc, seed, ev)
				}
				switch {
				case opens[ev.Kind]:
					faulted++
				case neutral[ev.Kind]:
				default:
					faulted--
				}
				if faulted > 1 {
					t.Fatalf("%s seed %d: two objects faulted at once:\n%s", sc, seed, sched)
				}
			}
			if faulted != 0 {
				t.Fatalf("%s seed %d: schedule ends with an open fault window:\n%s", sc, seed, sched)
			}
			n := len(sched.Events)
			switch sc {
			case KillRestartRepair: // the last window is the machine replacement
				if got[EvWipe] != 1 || sched.Events[n-2].Kind != EvWipe || sched.Events[n-1].Kind != EvRepair {
					t.Errorf("%s seed %d does not end in wipe + repair:\n%s", sc, seed, sched)
				}
			case JoinLeave:
				if got[EvLeave] == 0 || got[EvLeave] != got[EvJoin] {
					t.Errorf("%s seed %d has %d leaves, %d joins; want paired ≥1:\n%s", sc, seed, got[EvLeave], got[EvJoin], sched)
				}
			case ReplaceLive:
				if got[EvReplace] < 2 {
					t.Errorf("%s seed %d has %d replaces, want ≥2:\n%s", sc, seed, got[EvReplace], sched)
				}
			}
		}
	}
	if !delay || !flaky {
		t.Errorf("plans over seeds 1..20: delayed netem window %v, flaky window %v; want both", delay, flaky)
	}
}
