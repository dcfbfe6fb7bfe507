package robustatomic

import (
	"fmt"
	"sort"

	"robustatomic/internal/types"
)

// RegisterState is the raw state one object holds for one register instance
// (0 = the standalone register, 1..Shards = the Store's shards): an
// operator's view — one object, no quorum, and the object may lie.
type RegisterState struct {
	Object, Reg int
	PW, W       types.Pair
}

// Probe reads object id's raw state of register instances 0..shards as this
// process's reader identity, over a channel of its own to that one object
// (tcpnet.Direct: unconditioned, never deferred, no quorum involved).
func (c *Cluster) Probe(id, shards int) ([]RegisterState, error) {
	addr, err := c.objectAddr(id)
	if err != nil {
		return nil, err
	}
	d := c.mux.Direct(addr, types.Reader(c.readerID()))
	defer d.Close()
	var out []RegisterState
	for reg := 0; reg <= shards; reg++ {
		pw, w, err := d.Probe(reg)
		if err != nil {
			return out, fmt.Errorf("robustatomic: probe s%d instance %d: %w", id, reg, err)
		}
		out = append(out, RegisterState{id, reg, pw, w})
	}
	return out, nil
}

// Divergence is one timestamp of one register instance at which objects hold
// different values, in pw or in w (Holders: every state holding TS). A correct
// history binds each timestamp to exactly one value, so it is always
// pathological, and nothing heals it but wiping and repairing the holders,
// one at a time.
type Divergence struct {
	Reg     int
	TS      types.TS
	Holders []RegisterState
}

// DoctorReport is what a Doctor sweep found: the objects that could not be
// read in full (unreachable, or silent mid-scan — their state is not part of
// the verdict) and why, and every diverged timestamp, by register.
type DoctorReport struct {
	Skipped  map[int]error
	Diverged []Divergence
}

// Doctor sweeps every object's raw register state (Probe) for instances
// 0..shards and reports the timestamps at which objects hold DIVERGED values:
// two pairs with one timestamp and different contents.
func (c *Cluster) Doctor(shards int) DoctorReport {
	type regTS struct {
		reg int
		ts  types.TS
	}
	rep := DoctorReport{Skipped: map[int]error{}}
	held, first, diverged := map[regTS][]RegisterState{}, map[regTS]types.Value{}, map[regTS]bool{}
	for id := 1; id <= c.th.S; id++ {
		regs, err := c.Probe(id, shards)
		if err != nil {
			rep.Skipped[id] = err
			continue
		}
		for _, r := range regs {
			for _, p := range []types.Pair{r.PW, r.W} {
				if p.IsBottom() {
					continue
				}
				k := regTS{r.Reg, p.TS}
				if hs := held[k]; len(hs) == 0 || hs[len(hs)-1] != r { // once, when pw and w share the timestamp
					held[k] = append(hs, r)
				}
				if v, seen := first[k]; !seen {
					first[k] = p.Val
				} else if v != p.Val {
					diverged[k] = true
				}
			}
		}
	}
	for k := range diverged {
		rep.Diverged = append(rep.Diverged, Divergence{k.reg, k.ts, held[k]})
	}
	sort.Slice(rep.Diverged, func(i, j int) bool {
		a, b := rep.Diverged[i], rep.Diverged[j]
		if a.Reg != b.Reg {
			return a.Reg < b.Reg
		}
		return a.TS.Less(b.TS)
	})
	return rep
}
