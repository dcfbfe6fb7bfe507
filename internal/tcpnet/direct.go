package tcpnet

import (
	"fmt"
	"net"
	"time"

	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

// Direct is a request/reply channel to a single object, for operator
// tooling (storctl repair and probe). It deliberately bypasses the quorum
// protocol: a probe inspects one object's raw state, and a seed installs
// recovered state into one object — the RADON-style repair write-back that
// reconstitutes a replaced machine from its live peers. Its reads are always
// UNCONDITIONED — no have-list, no no-values flag — because probe, doctor
// and repair's verification want the object's raw values, not a reply
// shaped by what some client holds (TestProbeReadsUnconditioned) — and one
// object's reply, not a round: nothing here passes through the read
// accumulators, so no fast hit shortens what an operator sees either
// (repair's own quorum reads run on fresh handles, both query rounds:
// TestRepairReconstitutesWipedObject). Nor is anything here ever DEFERRED: a
// Direct owns its connection, outside any Mux and its suspicion scoreboard,
// so probe, doctor, repair and Seed reach exactly the object they name,
// suspected or not (TestDirectIgnoresSuspicion). One Direct serves any number
// of register instances over one connection; it is not safe for concurrent use.
type Direct struct {
	conn    net.Conn
	enc     *wire.Encoder
	dec     *wire.Decoder
	timeout time.Duration
	id      uint64
}

// DialDirect connects to one object. timeout bounds the dial and each
// subsequent exchange (≤ 0 means 5s).
func DialDirect(addr string, timeout time.Duration) (*Direct, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: dial %s: %w", addr, err)
	}
	return &Direct{conn: conn, enc: wire.NewEncoder(conn), dec: wire.NewDecoder(conn), timeout: timeout}, nil
}

// Close releases the connection.
func (d *Direct) Close() { d.conn.Close() }

// exchange sends one tagged message to register instance reg and awaits
// the reply echoing its request ID.
func (d *Direct) exchange(from types.ProcID, reg int, m types.Message) (types.Message, error) {
	d.conn.SetDeadline(time.Now().Add(d.timeout))
	d.id++
	m.Seq = int(d.id)
	if err := d.enc.EncodeRequest(wire.Request{ID: d.id, From: from, Reg: reg, Msg: m}); err != nil {
		return types.Message{}, err
	}
	for {
		rsp, err := d.dec.DecodeResponse()
		if err != nil {
			return types.Message{}, err
		}
		if rsp.ID == d.id {
			return rsp.Msg, nil
		}
	}
}

// Probe reads the object's raw (pw, w) state for register instance reg —
// an operator diagnostic, not a protocol read: the object may lie, and no
// quorum certifies the answer.
func (d *Direct) Probe(reg int) (pw, w types.Pair, err error) {
	rsp, err := d.exchange(types.Reader(1), reg, types.Message{Kind: types.MsgRead1})
	if err != nil {
		return types.Pair{}, types.Pair{}, fmt.Errorf("tcpnet: probe: %w", err)
	}
	if rsp.Kind != types.MsgState {
		return types.Pair{}, types.Pair{}, fmt.Errorf("tcpnet: probe: unexpected reply %v", rsp.Kind)
	}
	return rsp.PW, rsp.W, nil
}

// ProbeReg reads the object's raw (pw, w) state for one specific register
// of instance reg — the per-reader write-back registers a top-level Probe
// (which addresses the writer's register) cannot see. Implemented as a
// single-entry MUX bundle, the same sub-register addressing the protocol
// itself uses.
func (d *Direct) ProbeReg(reg int, id types.RegID) (pw, w types.Pair, err error) {
	m := types.Message{Kind: types.MsgMux, Sub: []types.SubMsg{{Reg: id, Msg: types.Message{Kind: types.MsgRead1}}}}
	rsp, err := d.exchange(types.Reader(1), reg, m)
	if err != nil {
		return types.Pair{}, types.Pair{}, fmt.Errorf("tcpnet: probe %v: %w", id, err)
	}
	if rsp.Kind != types.MsgMux || len(rsp.Sub) != 1 || rsp.Sub[0].Msg.Kind != types.MsgState {
		return types.Pair{}, types.Pair{}, fmt.Errorf("tcpnet: probe %v: unexpected reply %v", id, rsp.Kind)
	}
	return rsp.Sub[0].Msg.PW, rsp.Sub[0].Msg.W, nil
}

// Seed installs a quorum-certified pair into register id of the object's
// register instance reg (the shared register or one reader's write-back
// register, addressed like ProbeReg): PREWRITE then WRITEBACK of the pair,
// verified by reading the object's state back. The object's monotone state
// merge keeps Seed safe to repeat and unable to regress newer state.
func (d *Direct) Seed(reg int, id types.RegID, p types.Pair) error {
	for _, kind := range []types.MsgKind{types.MsgPreWrite, types.MsgWriteBack} {
		m := types.Message{Kind: types.MsgMux, Sub: []types.SubMsg{{Reg: id, Msg: types.Message{Kind: kind, Pair: p}}}}
		rsp, err := d.exchange(types.Reader(1), reg, m)
		if err != nil {
			return fmt.Errorf("tcpnet: seed %v: %s: %w", id, kind, err)
		}
		if rsp.Kind != types.MsgMux || len(rsp.Sub) != 1 || rsp.Sub[0].Msg.Kind != types.MsgAck {
			return fmt.Errorf("tcpnet: seed %v: %s not acknowledged: %v", id, kind, rsp.Kind)
		}
	}
	pw, w, err := d.ProbeReg(reg, id)
	if err != nil {
		return fmt.Errorf("tcpnet: seed: verify: %w", err)
	}
	if w.TS.Less(p.TS) || pw.TS.Less(p.TS) {
		return fmt.Errorf("tcpnet: seed %v: state not installed (pw %v, w %v, want ≥ %v)", id, pw, w, p)
	}
	return nil
}

// Probe is the one-shot form of Direct.Probe.
func Probe(addr string, reg int, timeout time.Duration) (pw, w types.Pair, err error) {
	d, err := DialDirect(addr, timeout)
	if err != nil {
		return types.Pair{}, types.Pair{}, err
	}
	defer d.Close()
	return d.Probe(reg)
}
