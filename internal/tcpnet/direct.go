package tcpnet

import (
	"fmt"
	"net"
	"time"

	"robustatomic/internal/proto"
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
// suspected or not (TestDirectIgnoresSuspicion). Its requests are addressed
// like any client's (proto.RegAcc, as a round of one object) and carry the
// identity of the process that dialed — the object logs them, and an
// equivocating one answers them, as that process's. One Direct serves any
// number of register instances over one connection; it is not safe for
// concurrent use.
type Direct struct {
	conn    net.Conn
	enc     *wire.Encoder
	dec     *wire.Decoder
	timeout time.Duration
	from    types.ProcID
	id      uint64
}

// DialDirect connects to one object as process from. timeout bounds the dial
// and each subsequent exchange (≤ 0 means 5s).
func DialDirect(addr string, from types.ProcID, timeout time.Duration) (*Direct, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: dial %s: %w", addr, err)
	}
	return &Direct{conn: conn, enc: wire.NewEncoder(conn), dec: wire.NewDecoder(conn), timeout: timeout, from: from}, nil
}

// Close releases the connection.
func (d *Direct) Close() { d.conn.Close() }

// ask sends msg to register id of the object's register instance reg and
// returns the object's answer for that register, which must be of kind want.
func (d *Direct) ask(reg int, id types.RegID, msg types.Message, want types.MsgKind) (types.Message, error) {
	var got types.Message
	var ra proto.RegAcc
	ra.Part(id, msg, proto.NewCountAcc(1, func(_ int, m types.Message) bool {
		got = m
		return m.Kind == want
	}))
	spec := ra.Spec(msg.Kind.String(), nil)
	req := spec.Req(0)
	d.conn.SetDeadline(time.Now().Add(d.timeout))
	d.id++
	req.Seq = int(d.id)
	if err := d.enc.EncodeRequest(wire.Request{ID: d.id, From: d.from, Reg: reg, Msg: req}); err != nil {
		return types.Message{}, err
	}
	for {
		rsp, err := d.dec.DecodeResponse()
		if err != nil {
			return types.Message{}, err
		}
		if rsp.ID != d.id {
			continue
		}
		if spec.Acc.Add(rsp.Server, rsp.Msg); !spec.Acc.Done() {
			return types.Message{}, fmt.Errorf("unexpected reply %v", rsp.Msg.TraceNote())
		}
		return got, nil
	}
}

// ProbeReg reads the object's raw (pw, w) state for register id of instance
// reg — the shared register or one reader's write-back register. An operator
// diagnostic, not a protocol read: the object may lie, and no quorum
// certifies the answer.
func (d *Direct) ProbeReg(reg int, id types.RegID) (pw, w types.Pair, err error) {
	rsp, err := d.ask(reg, id, types.Message{Kind: types.MsgRead1}, types.MsgState)
	if err != nil {
		return types.Pair{}, types.Pair{}, fmt.Errorf("tcpnet: probe %v: %w", id, err)
	}
	return rsp.PW, rsp.W, nil
}

// Seed installs a quorum-certified pair into register id of the object's
// register instance reg: PREWRITE then WRITEBACK of the pair, verified by
// reading the object's state back. The object's monotone state merge keeps
// Seed safe to repeat and unable to regress newer state.
func (d *Direct) Seed(reg int, id types.RegID, p types.Pair) error {
	for _, kind := range []types.MsgKind{types.MsgPreWrite, types.MsgWriteBack} {
		if _, err := d.ask(reg, id, types.Message{Kind: kind, Pair: p}, types.MsgAck); err != nil {
			return fmt.Errorf("tcpnet: seed %v: %s: %w", id, kind, err)
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
