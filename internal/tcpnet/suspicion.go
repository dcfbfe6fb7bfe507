// Suspicion-ordered rounds: which objects' requests a round holds back.
//
// A round closes on the first S−t replies, and an object that lies on every
// reply answers as fast as anyone, so it sits in nearly every quorum and
// every operation pays the worst case for it. The scoreboard keeps, per slot,
// the run of consecutive decided reads that object's report contradicted
// (proto.Verdict, computed by the read's own accumulators); Mux.round defers
// the requests of at most t slots whose run reached suspectRun. Timing, never
// protocol — see DESIGN.md, "Suspicion-ordered rounds".
package tcpnet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"robustatomic/internal/obs"
	"robustatomic/internal/proto"
)

const (
	// suspectRun CONSECUTIVE dissents make a slot a suspect; one agreeing
	// observation resets the run. A run, not a score: an honest object that
	// is merely ahead of its peers while writes race dissents on a quarter
	// of the reads, but never 16 in a row.
	suspectRun = 16
	runCap     = 2 * suspectRun // runs saturate here (ranking, gauge)
	// Every probeEvery-th round of a mux defers nobody: the only way a
	// deferred object is observed again.
	probeEvery = 64
)

var (
	mDeferred = obs.Default.Counter("tcpnet_round_deferred_total")
	mHedged   = obs.Default.Counter("tcpnet_round_hedged_total")
	mProbes   = obs.Default.Counter("tcpnet_round_probe_total")
)

// scoreboard is one mux's suspicion state: bookkeeping only, no sockets.
type scoreboard struct {
	t      int           // at most t slots are ever deferred
	rounds atomic.Uint64 // probe cadence
	held   atomic.Uint64 // bitmask (bit sid) of the suspects

	mu   sync.Mutex
	run  []int        // dissent run by sid (index 0 unused)
	runG []*obs.Gauge // tcpnet_object_dissent_run{sid}: process-wide, a client runs one mux
}

func newScoreboard(n int) *scoreboard {
	sb := &scoreboard{t: (n - 1) / 3, run: make([]int, n+1), runG: make([]*obs.Gauge, n+1)}
	for sid := 1; sid <= n; sid++ {
		sb.runG[sid] = obs.Default.Gauge(fmt.Sprintf(`tcpnet_object_dissent_run{sid="%d"}`, sid))
	}
	return sb
}

// Suspects returns the slots (object ids) whose requests rounds defer now.
func (m *Mux) Suspects() (sids []int) {
	for held, sid := m.susp.held.Load(), 1; sid <= m.n; sid++ {
		if held&(1<<uint(sid)) != 0 {
			sids = append(sids, sid)
		}
	}
	return sids
}

// plan returns the slots whose requests the next round defers; probe marks
// the periodic round that defers nobody although there are suspects. first
// is where the round's send order starts (slot first+1): a Fibonacci hash of
// the round number, so that consecutive rounds spread evenly over the slots
// and no fixed pattern of operations keeps a slot at the same position.
func (sb *scoreboard) plan() (held uint64, probe bool, first int) {
	held = sb.held.Load()
	r := sb.rounds.Add(1)
	first = int(r * 0x9e3779b97f4a7c15 >> 33 % uint64(len(sb.run)-1))
	if r%probeEvery == 0 && held != 0 {
		return 0, true, first
	}
	return held, false, first
}

// observe folds one decided round's verdict into the runs.
func (sb *scoreboard) observe(v proto.Verdict) {
	dissent := v.Dissent()
	if v.Agree|dissent == 0 {
		return
	}
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for sid := 1; sid < len(sb.run); sid++ {
		bit := uint64(1) << uint(sid)
		if dissent&bit != 0 {
			for r, d := range [...]uint64{v.W, v.Withheld, v.Inflate} {
				if d&bit != 0 {
					reason := [...]string{"w", "withheld", "inflate"}[r]
					obs.Default.Counter(fmt.Sprintf(`tcpnet_object_dissent_total{sid="%d",reason=%q}`, sid, reason)).Inc()
				}
			}
			sb.set(sid, min(sb.run[sid]+1, runCap))
		} else if v.Agree&bit != 0 {
			sb.set(sid, 0)
		}
	}
}

// reset forgets slot sid's record (a replacement daemon took the slot).
func (sb *scoreboard) reset(sid int) {
	sb.mu.Lock()
	sb.set(sid, 0)
	sb.mu.Unlock()
}

// set records sid's run and re-ranks the suspects: the slots whose run
// reached suspectRun, never more than t, longest runs first, ties by sid.
// Callers hold mu.
func (sb *scoreboard) set(sid, run int) {
	if sb.run[sid] == run {
		return
	}
	sb.run[sid] = run
	sb.runG[sid].Set(int64(run))
	var held uint64
	for k := 0; k < sb.t; k++ {
		best := 0
		for s := 1; s < len(sb.run); s++ {
			if held&(1<<uint(s)) == 0 && sb.run[s] >= suspectRun && sb.run[s] > sb.run[best] {
				best = s
			}
		}
		if best == 0 {
			break
		}
		held |= 1 << uint(best)
	}
	moved := sb.held.Swap(held) ^ held
	for s := 1; moved != 0 && s < len(sb.run); s++ {
		if bit := uint64(1) << uint(s); moved&bit != 0 {
			to, since := "trusted", int64(0)
			if held&bit != 0 {
				to, since = "suspect", time.Now().Unix()
			}
			obs.Default.Counter(fmt.Sprintf(`tcpnet_suspect_transitions_total{sid="%d",to=%q}`, s, to)).Inc()
			obs.Default.Gauge(fmt.Sprintf(`tcpnet_object_suspect_since_unix{sid="%d"}`, s)).Set(since)
		}
	}
}
