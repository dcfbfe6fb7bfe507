package tcpnet

import (
	"fmt"

	"robustatomic/internal/proto"
	"robustatomic/internal/types"
)

// Direct is a request/reply channel to a single object, for operator
// tooling (storctl repair and probe). It deliberately bypasses the quorum
// protocol: a probe inspects one object's raw state, and a seed installs
// recovered state into one object — the RADON-style repair write-back that
// reconstitutes a replaced machine from its live peers. It is a ONE-SLOT MUX
// on a fresh link to the object's address (Mux.Fresh) — the object need be in
// no configuration — so each exchange is a round like any other, of one
// object, and three contracts hold by construction. Its reads are always
// UNCONDITIONED — the round's accumulator is a proto.RegAcc without a Known
// set: no have-list, no no-values flag — because probe, doctor and repair's
// verification want the object's raw values, not a reply shaped by what some
// client holds (TestProbeReadsUnconditioned); nothing passes through the read
// accumulators either, so no fast hit shortens what an operator sees
// (repair's own quorum reads are atomic reads like any other:
// TestRepairReconstitutesWipedObject). Nothing here is ever DEFERRED: the
// scoreboard of a mux of one slot holds nobody (t = 0), and it is not the
// scoreboard of the mux that suspects the object, so probe, doctor, repair
// and Seed reach exactly the object they name (TestDirectIgnoresSuspicion).
// And its requests carry the identity of the process that asked — the object
// logs them, and an equivocating one answers them, as that process's — under
// the epoch-0 wildcard stamp no object refuses. One Direct serves any number
// of register instances; it is not safe for concurrent use.
type Direct struct {
	mux  *Mux
	from types.ProcID
}

// Direct returns a channel to the object at addr — on the fabric this mux's
// link runs on, sharing nothing else with it — that sends as process from.
// Nothing is dialed until the first exchange; each is bounded by the round
// timeout (5 s).
func (m *Mux) Direct(addr string, from types.ProcID) *Direct {
	d := &Direct{mux: m.Fresh([]string{addr}), from: from}
	d.mux.epoch.Store(0)
	return d
}

// Close releases the link.
func (d *Direct) Close() { d.mux.Close() }

// ask sends msg to the shared register of the object's register instance
// reg and returns the object's answer, which must be of kind want.
func (d *Direct) ask(reg int, msg types.Message, want types.MsgKind) (got types.Message, err error) {
	var ra proto.RegAcc
	ra.Ask(types.WriterReg, msg, proto.NewCountAcc(1, func(_ int, m types.Message) bool {
		got = m
		return true
	}))
	err = d.mux.round(d.from, reg, 0, ra.Spec(msg.Kind.String()))
	if err == nil && got.Kind != want {
		err = fmt.Errorf("unexpected reply %v", got.TraceNote())
	}
	return got, err
}

// Probe reads the object's raw (pw, w) state of register instance reg. An
// operator diagnostic, not a protocol read: the object may lie, and no
// quorum certifies the answer.
func (d *Direct) Probe(reg int) (pw, w types.Pair, err error) {
	rsp, err := d.ask(reg, types.Message{Kind: types.MsgRead1}, types.MsgState)
	if err != nil {
		return types.Pair{}, types.Pair{}, fmt.Errorf("tcpnet: probe: %w", err)
	}
	return rsp.PW, rsp.W, nil
}

// Seed installs a quorum-certified pair into the object's register instance
// reg: PREWRITE then WRITEBACK of the pair, verified by reading the object's
// state back. The object's monotone state merge keeps Seed safe to repeat and
// unable to regress newer state.
func (d *Direct) Seed(reg int, p types.Pair) error {
	for _, kind := range []types.MsgKind{types.MsgPreWrite, types.MsgWriteBack} {
		if _, err := d.ask(reg, types.Message{Kind: kind, Pair: p}, types.MsgAck); err != nil {
			return fmt.Errorf("tcpnet: seed: %s: %w", kind, err)
		}
	}
	pw, w, err := d.Probe(reg)
	if err != nil {
		return fmt.Errorf("tcpnet: seed: verify: %w", err)
	}
	if w.TS.Less(p.TS) || pw.TS.Less(p.TS) {
		return fmt.Errorf("tcpnet: seed: state not installed (pw %v, w %v, want ≥ %v)", pw, w, p)
	}
	return nil
}
