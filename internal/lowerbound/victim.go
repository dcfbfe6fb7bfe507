// Package lowerbound makes the paper's two impossibility proofs executable.
//
// Each proof is an adversary: a family of partial runs (Figures 1 and 2)
// that drives any register implementation with a forbidden round profile —
// 2-round reads for Proposition 1, 3-round reads with k-round writes for
// Lemma 1 — into an atomicity violation. The harnesses in this package
// construct those runs inside the deterministic simulator against pluggable
// "victim" protocols, verify the proofs' indistinguishability claims
// mechanically (byte-comparing the reply streams a reader observes in
// paired runs), locate the first run whose executed history violates the
// atomicity checker, and render the runs as block diagrams in the style of
// the paper's figures.
//
// The paper's argument shows a violation must exist for every such
// implementation; the harness finds the concrete one for the victim at
// hand. Victims here do not write from the read path, which specializes the
// constructions slightly (the σʳ read-states of the proofs coincide with
// write-round states); the harness's mechanical view-equality checks
// discharge exactly the claims the proofs make for this class.
package lowerbound

import (
	"fmt"
	"sort"

	"robustatomic/internal/proto"
	"robustatomic/internal/quorum"
	"robustatomic/internal/sim"
	"robustatomic/internal/types"
)

// phaseReg returns the register instance used as the victim's m-th write
// phase slot (m ≥ 1). Phase 1 doubles as the PREWRITE slot.
func phaseReg(m int) types.RegID { return types.RegID{Class: types.RegWriter, Idx: m} }

// Victim is a register implementation with a fixed round profile, the class
// of protocols the lower bounds rule out. Victims must be deterministic
// functions of their observed reply streams.
type Victim interface {
	// Name identifies the victim in reports.
	Name() string
	// WriteRounds returns k, the victim's write round count.
	WriteRounds() int
	// ReadRounds returns the victim's read round count (2 for Proposition
	// 1 victims, 3 for Lemma 1 victims).
	ReadRounds() int
	// WriteOp returns the write operation body.
	WriteOp(th quorum.Thresholds, v types.Value) sim.OpFunc
	// ReadOp returns the read operation body.
	ReadOp(th quorum.Thresholds) sim.OpFunc
}

// FixedVictim implements Victim: writes flood k phase slots (one round
// each, awaiting S−t acknowledgements), reads query all slots for a fixed
// number of rounds (each terminating at S−t replies, the most any wait-free
// round can demand of potentially-faulty objects) and decide by a
// configurable rule. Gullible=false certifies values by t+1 exact matches
// across all rounds — sensible, but provably insufficient; Gullible=true
// returns the maximum pair seen anywhere, surviving state deletion longer
// but fabricatable by a single Byzantine object.
type FixedVictim struct {
	K        int // write rounds
	R        int // read rounds
	Gullible bool
	// OnReply, when set, sees every reply read c accepts (round r ≥ 1), so a
	// test can ask what another decision rule would have made of the run.
	OnReply func(c *sim.Client, r, sid int, m types.Message)
}

var _ Victim = FixedVictim{}

// Name implements Victim.
func (v FixedVictim) Name() string {
	mode := "cautious"
	if v.Gullible {
		mode = "gullible"
	}
	return fmt.Sprintf("%s-%dW%dR", mode, v.K, v.R)
}

// WriteRounds implements Victim.
func (v FixedVictim) WriteRounds() int { return v.K }

// ReadRounds implements Victim.
func (v FixedVictim) ReadRounds() int { return v.R }

// WriteOp implements Victim.
func (v FixedVictim) WriteOp(th quorum.Thresholds, val types.Value) sim.OpFunc {
	return func(c *sim.Client) (types.Value, error) {
		p := types.Pair{TS: types.At(1), Val: val}
		for m := 1; m <= v.K; m++ {
			reg := phaseReg(m)
			req := types.Message{Kind: types.MsgMux, Sub: []types.SubMsg{
				{Reg: reg, Msg: types.Message{Kind: types.MsgWrite, Pair: p}},
			}}
			spec := proto.RoundSpec{
				Label: fmt.Sprintf("W%d", m),
				Req:   func(int) types.Message { return req },
				Acc: proto.NewCountAcc(th.Quorum(), func(_ int, m types.Message) bool {
					return m.Kind == types.MsgMux
				}),
			}
			if err := c.Round(spec); err != nil {
				return types.Bottom, err
			}
		}
		return types.Bottom, nil
	}
}

// ReadOp implements Victim.
func (v FixedVictim) ReadOp(th quorum.Thresholds) sim.OpFunc {
	return func(c *sim.Client) (types.Value, error) {
		// reporters[pair] = set of distinct objects that reported it, in
		// any phase slot of any round.
		reporters := make(map[types.Pair]map[int]bool)
		sub := make([]types.SubMsg, v.K)
		for m := 1; m <= v.K; m++ {
			sub[m-1] = types.SubMsg{Reg: phaseReg(m), Msg: types.Message{Kind: types.MsgRead1}}
		}
		req := types.Message{Kind: types.MsgMux, Sub: sub}
		for r := 1; r <= v.R; r++ {
			acc := proto.NewCountAcc(th.Quorum(), func(sid int, m types.Message) bool {
				if m.Kind != types.MsgMux {
					return false
				}
				if v.OnReply != nil {
					v.OnReply(c, r, sid, m)
				}
				for _, s := range m.Sub {
					if s.Msg.Kind != types.MsgState {
						continue
					}
					for _, p := range []types.Pair{s.Msg.PW, s.Msg.W} {
						if p.TS.IsZero() {
							continue
						}
						if reporters[p] == nil {
							reporters[p] = make(map[int]bool, th.S)
						}
						reporters[p][sid] = true
					}
				}
				return true
			})
			spec := proto.RoundSpec{
				Label: fmt.Sprintf("RD%d", r),
				Req:   func(int) types.Message { return req },
				Acc:   acc,
			}
			if err := c.Round(spec); err != nil {
				return types.Bottom, err
			}
		}
		// Decision.
		var pairs []types.Pair
		for p := range reporters {
			pairs = append(pairs, p)
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[j].Less(pairs[i]) })
		for _, p := range pairs {
			if v.Gullible || len(reporters[p]) >= th.Certify() {
				return p.Val, nil
			}
		}
		return types.Bottom, nil
	}
}
