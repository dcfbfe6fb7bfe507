package robustatomic

import (
	"fmt"
	"sort"

	"robustatomic/internal/types"
)

// RegisterState is the raw state one object holds for one register: an
// operator's view — one object, no quorum, and the object may lie. Reg is the
// register instance (0 = the standalone register, 1..Shards = the Store's
// shards), Reader 0 its shared register and i reader i's write-back register.
type RegisterState struct {
	Object, Reg, Reader int
	PW, W               types.Pair
}

// Probe reads object id's raw state of every register of instances 0..shards
// — the shared register and all R write-back registers of each — as this
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
		for r := 0; r <= c.opts.Readers; r++ {
			rid := types.WriterReg
			if r > 0 {
				rid = types.ReaderReg(r)
			}
			pw, w, err := d.ProbeReg(reg, rid)
			if err != nil {
				return out, fmt.Errorf("robustatomic: probe s%d instance %d: %w", id, reg, err)
			}
			out = append(out, RegisterState{id, reg, r, pw, w})
		}
	}
	return out, nil
}

// Divergence is one timestamp of one register at which objects hold
// different values, in pw or in w (Holders: every state holding TS). A correct
// history binds each timestamp to exactly one value, so it is always
// pathological (on a write-back register: a reader that reissued a write-back
// sequence number for a different certified value), and nothing heals it but
// wiping and repairing the holders, one at a time.
type Divergence struct {
	Reg, Reader int
	TS          types.TS
	Holders     []RegisterState
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
		reg, reader int
		ts          types.TS
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
				k := regTS{r.Reg, r.Reader, p.TS}
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
		rep.Diverged = append(rep.Diverged, Divergence{k.reg, k.reader, k.ts, held[k]})
	}
	sort.Slice(rep.Diverged, func(i, j int) bool {
		a, b := rep.Diverged[i], rep.Diverged[j]
		if a.Reg != b.Reg || a.Reader != b.Reader {
			return a.Reg < b.Reg || a.Reg == b.Reg && a.Reader < b.Reader
		}
		return a.TS.Less(b.TS)
	})
	return rep
}
