package lowerbound

import (
	"fmt"
	"testing"

	"robustatomic/internal/quorum"
	"robustatomic/internal/regular"
	"robustatomic/internal/sim"
	"robustatomic/internal/types"
)

// hitProbe runs the production reader's fast-hit test (regular.ReadAcc)
// beside a victim's reads: the first-round replies of every read are also
// fed, phase slot by phase slot, to one accumulator per slot.
type hitProbe struct {
	th    quorum.Thresholds
	k     int
	reads map[*sim.Client]*probedRead
	order []*probedRead
}

type probedRead struct {
	accs   []*regular.ReadAcc
	rounds int
}

func (p *hitProbe) onReply(c *sim.Client, r, sid int, m types.Message) {
	rd := p.reads[c]
	if rd == nil {
		rd = &probedRead{}
		for i := 0; i < p.k; i++ {
			rd.accs = append(rd.accs, regular.NewReadAcc(p.th))
		}
		if p.reads == nil {
			p.reads = map[*sim.Client]*probedRead{}
		}
		p.reads[c] = rd
		p.order = append(p.order, rd)
	}
	rd.rounds = max(rd.rounds, r)
	for i := range m.Sub {
		if r == 1 && i < len(rd.accs) {
			rd.accs[i].Add(sid, m.Sub[i].Msg)
		}
	}
}

// hit reports whether every slot's first round hit, and the largest pair hit.
func (rd *probedRead) hit() (bool, types.Pair) {
	best := types.BottomPair
	for _, a := range rd.accs {
		if !a.Hit() {
			return false, types.Pair{}
		}
		best = types.MaxPair(best, a.Choice())
	}
	return true, best
}

// outcome flattens what a lower-bound run established.
func outcome(out *Outcome, err error) string {
	if err != nil {
		return err.Error()
	}
	s := fmt.Sprintf("%s: %v after %d checks;", out.Run, out.Violation, out.IndistinguishabilityChecks)
	for _, r := range out.Reports {
		s += fmt.Sprintf(" %s→%q", r.Name, r.ReadValue)
	}
	return s
}

// TestLowerBoundsUnmovedByFastHit relates the fast hit to the paper's
// bounds. The adversaries of Proposition 1 and Lemma 1 attack FIXED-profile
// victims (2- and 3-round reads that never write back), not this
// repository's reader, and what they withhold is not agreement: their runs
// do show a reader 2t+1 agreeing objects — the read that completes
// Proposition 1's violation sees ⊥ on 2t+1 of them — because the victim
// already lost when an EARLIER read returned a value that neither S−t
// w-reports nor a write-back had made permanent. That step is the one the
// production reader never takes (DESIGN.md, Lemma 3), so the bounds bind it
// exactly where they did: a read that misses takes the rounds it took
// before, and the hit adds no round to any run. Pinned here: with the
// production hit test running beside every read, the constructions' runs,
// round counts, indistinguishability checks and violations are what they
// are without it.
func TestLowerBoundsUnmovedByFastHit(t *testing.T) {
	for _, tt := range []int{1, 2} {
		sizes := []int{3*tt + 1}
		if 4*tt > 3*tt+1 {
			sizes = append(sizes, 4*tt)
		}
		for _, s := range sizes {
			th, err := quorum.NewThresholds(s, tt)
			if err != nil {
				t.Fatal(err)
			}
			p := &hitProbe{th: th, k: 2}
			plain := outcome((&ReadBound{T: tt, S: s, Victim: FixedVictim{K: 2, R: 2}}).Run())
			probed := outcome((&ReadBound{T: tt, S: s, Victim: FixedVictim{K: 2, R: 2, OnReply: p.onReply}}).Run())
			if plain != probed {
				t.Errorf("read bound t=%d S=%d: outcome moved:\n%s\n%s", tt, s, plain, probed)
			}
			hits := 0
			for _, rd := range p.order {
				if rd.rounds > 2 {
					t.Errorf("read bound t=%d S=%d: a read ran %d rounds", tt, s, rd.rounds)
				}
				if ok, _ := rd.hit(); ok {
					hits++
				}
			}
			// The violating read is the last one executed: new/old inversion
			// on ⊥, which 2t+1 objects agree on.
			last, lastPair := p.order[len(p.order)-1].hit()
			if !last || !lastPair.IsBottom() {
				t.Errorf("read bound t=%d S=%d: the violating read's first round: hit=%v on %v, want a hit on ⊥", tt, s, last, lastPair)
			}
			t.Logf("read bound t=%d S=%d: %d of %d reads see 2t+1 agreeing objects on every slot", tt, s, hits, len(p.order))
		}
	}
	for _, k := range []int{2, 3} {
		th, err := quorum.NewThresholds(3*int(TMin(k))+1, int(TMin(k)))
		if err != nil {
			t.Fatal(err)
		}
		p := &hitProbe{th: th, k: k}
		plain := outcome((&WriteBound{K: k}).Run())
		probed := outcome((&WriteBound{K: k, Victim: FixedVictim{K: k, R: 3, OnReply: p.onReply}}).Run())
		if plain != probed {
			t.Errorf("write bound k=%d: outcome moved:\n%s\n%s", k, plain, probed)
		}
		hits := 0
		for _, rd := range p.order {
			if rd.rounds > 3 {
				t.Errorf("write bound k=%d: a read ran %d rounds", k, rd.rounds)
			}
			if ok, _ := rd.hit(); ok {
				hits++
			}
		}
		// Lemma 1's runs, unlike Proposition 1's, never line 2t+1 objects up.
		if hits != 0 || len(p.order) == 0 {
			t.Errorf("write bound k=%d: %d of %d reads see 2t+1 agreeing objects on every slot, want none", k, hits, len(p.order))
		}
	}
}
