// Package torture is the seeded, deterministic cluster torture harness: a
// schedule engine drives a real cluster — objects in this process under the
// simulator's schedule, or real TCP daemons with persist data dirs — through
// composable fault events
// (partition/heal, message drop/duplication/delay, kill + restart from
// preserved data dirs, wipe + quorum Repair, and the Byzantine behaviors)
// while hundreds of simulated clients issue Put/Get/Delete against the
// Store. Every per-key history is decided by checker.CheckAtomicMW and
// quiescent-state agreement is verified at the end.
//
// Determinism model: the fault schedule is a pure function of (scenario,
// seed, workload size) — Plan derives every event and its trigger
// point from a seeded rand stream. Events fire when the global count of
// completed client operations crosses the event's At threshold, not at wall
// times, so a replayed seed fires the identical event sequence at the same
// logical progress points. In ModeLive that is the whole of it: the clients
// are the simulator's goroutines, one running at a time, the link and the
// clock are its own, so one seed is one EXECUTION — the same interleaving,
// the same messages in the same order, the same histories (Result.Digest). In
// ModeTCP the clients run in parallel over real sockets (which is where the
// race detector watches them) and the interleaving varies run to run.
// Failures print the seed and a replay command (see Replay in the test
// harness).
package torture

import (
	"fmt"
	"math/rand"
)

// Mode selects the runtime under torture.
type Mode string

// Modes.
const (
	// ModeLive tortures an in-process cluster under internal/sim (the
	// scheduled link, seeded message latencies, a virtual clock). A live
	// object has no disk: killed, it is unmounted with its state (requests
	// fail at once, as to a closed port) and mounted again at restart — a
	// crash that preserved it; a wiped one is replaced under its address by a
	// blank one, a fresh one mounted under a new address.
	ModeLive Mode = "live"
	// ModeTCP tortures real TCP daemons with persist data dirs: kill closes
	// the daemon and restart recovers it from its preserved WAL; wipe deletes
	// the data dir; a fresh daemon gets a new port.
	ModeTCP Mode = "tcp"
)

// Scenario names one seeded schedule family.
type Scenario string

// Scenarios.
const (
	// PartitionHeal cycles network faults: partition windows, netem
	// drop/dup(/delay) windows, always healed before the next window opens.
	PartitionHeal Scenario = "partition-heal"
	// KillRestartRepair cycles crash faults: kill + restart windows
	// (preserved data dirs), ending in a wipe + quorum-Repair window.
	KillRestartRepair Scenario = "kill-restart-repair"
	// ByzantineMix cycles the Byzantine behaviors (flaky, stale, equivocate,
	// falseelide) one object at a time, with a netem window mixed in.
	ByzantineMix Scenario = "byzantine-mix"
	// JoinLeave cycles membership vacancies: an object Leaves the active
	// configuration (and dies), the vacancy spending the fault budget, then a
	// fresh object on a NEW address Joins the vacant slot with migrated state.
	JoinLeave Scenario = "join-leave"
	// ReplaceLive cycles atomic slot replacement: each window Moves one slot
	// to a fresh object on a new address — state migrated first, the old
	// object killed after — with no vacancy at any point.
	ReplaceLive Scenario = "replace-live"
)

// Scenarios lists every schedule family, in the order `make torture` runs
// them.
func Scenarios() []Scenario {
	return []Scenario{PartitionHeal, KillRestartRepair, ByzantineMix, JoinLeave, ReplaceLive}
}

// EventKind is one fault-event verb.
type EventKind int

// Event kinds.
const (
	EvPartition  EventKind = iota + 1 // cut object Sid off the network
	EvHeal                            // reconnect object Sid
	EvKill                            // stop object Sid (its state preserved)
	EvRestart                         // restart object Sid from its preserved state
	EvWipe                            // kill Sid, lose its state, restart blank on its address
	EvRepair                          // quorum-repair the blank object Sid
	EvChaos                           // install Byzantine behavior Behavior on Sid
	EvClearChaos                      // restore Sid to honest
	EvNetem                           // inject Drop/Dup/DelayUS link faults on Sid
	EvClearNetem                      // clear Sid's link faults
	EvLeave                           // vacate slot Sid from the configuration, kill its object
	EvJoin                            // join a fresh object (new address, blank) into the vacancy
	EvReplace                         // atomically Move slot Sid to a fresh object on a new address
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvPartition:
		return "partition"
	case EvHeal:
		return "heal"
	case EvKill:
		return "kill"
	case EvRestart:
		return "restart"
	case EvWipe:
		return "wipe"
	case EvRepair:
		return "repair"
	case EvChaos:
		return "chaos"
	case EvClearChaos:
		return "clear-chaos"
	case EvNetem:
		return "netem"
	case EvClearNetem:
		return "clear-netem"
	case EvLeave:
		return "leave"
	case EvJoin:
		return "join"
	case EvReplace:
		return "replace"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one scheduled fault. It fires when the global completed-operation
// counter reaches At.
type Event struct {
	At       int
	Kind     EventKind
	Sid      int
	Behavior string  // EvChaos: flaky | stale | equivocate | falseelide
	Drop     float64 // EvNetem: request drop probability
	Dup      float64 // EvNetem: reply duplication probability
	DelayUS  int     // EvNetem: reply delay in microseconds
}

// String implements fmt.Stringer.
func (e Event) String() string {
	switch e.Kind {
	case EvChaos:
		return fmt.Sprintf("@%d %s s%d %s", e.At, e.Kind, e.Sid, e.Behavior)
	case EvNetem:
		return fmt.Sprintf("@%d %s s%d drop=%.2f dup=%.2f delay=%dus", e.At, e.Kind, e.Sid, e.Drop, e.Dup, e.DelayUS)
	default:
		return fmt.Sprintf("@%d %s s%d", e.At, e.Kind, e.Sid)
	}
}

// Schedule is a fully planned fault schedule: the deterministic product of
// its inputs, ordered by At.
type Schedule struct {
	Seed     int64
	Scenario Scenario
	Events   []Event
}

// String renders the schedule one event per line (failure diagnostics and
// the determinism tests compare this form).
func (s Schedule) String() string {
	out := fmt.Sprintf("schedule seed=%d scenario=%s", s.Seed, s.Scenario)
	for _, ev := range s.Events {
		out += "\n  " + ev.String()
	}
	return out
}

// Plan derives the fault schedule for one run: totalOps is the number of
// client operations the workload will attempt (events trigger at completed-
// operation counts strictly below it), s the object count. Plan is pure —
// identical inputs yield the identical schedule, which is the harness's
// replay guarantee — and blind to the runtime: every scenario runs on both.
func Plan(scenario Scenario, seed int64, totalOps, s int) (Schedule, error) {
	if totalOps < 10 {
		return Schedule{}, fmt.Errorf("torture: workload of %d ops is too small to schedule against", totalOps)
	}
	if s < 4 {
		return Schedule{}, fmt.Errorf("torture: need at least 4 objects, got %d", s)
	}
	rng := rand.New(rand.NewSource(seed))
	sched := Schedule{Seed: seed, Scenario: scenario}

	// Fault windows partition the run: at most one faulty object at a time
	// (the t=1 budget the workload keeps certifying against), every window
	// closed before the next opens, and the last window closed before the
	// final tenth of the workload so the run quiesces under its own schedule.
	span := totalOps * 9 / 10
	windows := min(max(span/60, 2), 8)
	wlen := span / windows
	jitter := func(lo, hi int) int { // uniform in [lo, hi)
		if hi <= lo+1 {
			return lo
		}
		return lo + rng.Intn(hi-lo)
	}
	for w := 0; w < windows; w++ {
		w0, w1 := w*wlen, (w+1)*wlen
		start := jitter(w0+1, w0+wlen/3)
		end := jitter(w0+2*wlen/3, w1)
		sid := 1 + rng.Intn(s)
		switch scenario {
		case PartitionHeal:
			if rng.Intn(3) == 0 {
				ev := Event{At: start, Kind: EvNetem, Sid: sid, Drop: 0.2 + 0.3*rng.Float64(), Dup: 0.2 * rng.Float64()}
				if rng.Intn(2) == 0 {
					ev.DelayUS = 500 + rng.Intn(2000)
				}
				sched.Events = append(sched.Events, ev, Event{At: end, Kind: EvClearNetem, Sid: sid})
			} else {
				sched.Events = append(sched.Events,
					Event{At: start, Kind: EvPartition, Sid: sid},
					Event{At: end, Kind: EvHeal, Sid: sid})
			}
		case KillRestartRepair:
			if w == windows-1 {
				// Machine replacement: what the object held is lost, a blank
				// one comes up on the old address, and the quorum repairs it.
				sched.Events = append(sched.Events,
					Event{At: start, Kind: EvWipe, Sid: sid},
					Event{At: end, Kind: EvRepair, Sid: sid})
			} else {
				sched.Events = append(sched.Events,
					Event{At: start, Kind: EvKill, Sid: sid},
					Event{At: end, Kind: EvRestart, Sid: sid})
			}
		case ByzantineMix:
			behaviors := []string{"flaky", "stale", "equivocate", "falseelide"}
			if rng.Intn(4) == 0 {
				sched.Events = append(sched.Events,
					Event{At: start, Kind: EvNetem, Sid: sid, Drop: 0.3, Dup: 0.2},
					Event{At: end, Kind: EvClearNetem, Sid: sid})
			} else {
				sched.Events = append(sched.Events,
					Event{At: start, Kind: EvChaos, Sid: sid, Behavior: behaviors[rng.Intn(len(behaviors))]},
					Event{At: end, Kind: EvClearChaos, Sid: sid})
			}
		case JoinLeave:
			// The vacancy IS the window's fault: between leave and join the
			// cluster runs S-1 live slots, exactly the budget's one crashed
			// object; the join closes it with a migrated fresh daemon.
			sched.Events = append(sched.Events,
				Event{At: start, Kind: EvLeave, Sid: sid},
				Event{At: end, Kind: EvJoin, Sid: sid})
		case ReplaceLive:
			// The atomic replace never opens a vacancy, so the event is a
			// point, not a window: the slot is always populated, and the
			// fault budget stays free for the handoff itself.
			sched.Events = append(sched.Events,
				Event{At: jitter(start, end), Kind: EvReplace, Sid: sid})
		default:
			return Schedule{}, fmt.Errorf("torture: unknown scenario %q", scenario)
		}
	}
	return sched, nil
}
