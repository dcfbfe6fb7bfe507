// Package wire defines the TCP wire format of the storage protocol: a
// request envelope carrying the client identity, the target register and
// the message, and a response envelope carrying the object's reply. One
// request yields at most one response (objects reply to a message before
// receiving any other, per the model); responses are matched to their
// requests by the client-chosen 64-bit request ID every frame carries, so
// any number of requests may be in flight on one connection and replies may
// complete out of order.
//
// The LIVE codec (Encoder/Decoder) is a hand-rolled length-prefixed binary
// format — generation 5, header byte 0x05: each frame is tagged with the
// request ID and either a single register message or a BATCH of per-register
// (Reg, Msg) sub-requests, so one frame can carry a whole wave of register
// rounds (the cross-shard group commit of the Store layer). The codec
// encodes into a pooled per-connection buffer and writes each envelope as
// one frame. See codec.go for the format.
//
// Versioning: the LIVE wire format is not negotiated — clients and daemons
// of one deployment must run the same protocol generation, upgraded in
// lockstep (daemons first is fine: requests fail with a version/decode
// error until both sides match, without corrupting state). Generation
// history: gen 1 was the gob stream of the original deployment, whose Pair
// carried a scalar timestamp until the multi-writer refactor changed it to
// the (Seq, WID) struct (a type change gob surfaces immediately); gen 2
// replaced gob with the binary codec — lock-step request/reply, replies
// matched by Message.Seq, one in-flight request per connection; gen 3
// tagged every frame with a 64-bit request ID and added the
// batch frame, which is what turned the transport from lock-step into a
// pipelined, multiplexed protocol; gen 4 stamps every
// request with the client's configuration epoch (uvarint after From.Idx),
// the dynamic-reconfiguration redirect key — objects refuse requests from
// a superseded epoch with MsgWrongEpoch so clients refetch the membership
// and retry, and epoch 0 is the wildcard stamp config-plane rounds and
// operator tools use; gen 5 (the current format) carries value-eliding
// reads — a READ's have-list and no-values flag, a STATE reply's elided
// bits, and one bit for W == PW so a settled register ships one copy of
// its value instead of two (the three mask bits gen 4 left spare; see
// codec.go). A gen-4 peer would misparse those bits, hence the bump: like
// every generation change it is a lockstep upgrade of daemons and clients.
// A frame from any other generation is rejected by the version byte, so mixed
// deployments fail loudly on the first message. PERSISTED data is versioned
// the same way — snapshot and shard-table header bytes, and the WAL's record
// format, which is still gob (GobEncoder/GobDecoder below: gob omits absent
// fields and ignores unknown ones, so batch envelopes and epoch stamps
// persisted without a WAL format bump) — and an input in a format this
// software does not read is refused with a typed error, never guessed at.
package wire

import (
	"encoding/gob"
	"fmt"
	"io"

	"robustatomic/internal/types"
)

// SubReq is one register instance's share of a batch frame: the register
// instance it addresses (request direction) or answers for (response
// direction), and the protocol message.
type SubReq struct {
	Reg int
	Msg types.Message
}

// Request is a client→object message. ID is the client-chosen request tag
// the object must echo in its response; the client's demultiplexer routes
// replies by it, so IDs must be unique among a connection's in-flight
// requests (the transports use a monotone per-client counter).
//
// A request addresses either ONE register instance (Reg/Msg — Reg selects
// the instance: one physical object hosts any number of independent atomic
// registers, the shards of the keyed Store layer; instance 0 is the default
// register of the original single-register deployment) or MANY (Subs — a
// batch of per-register sub-requests sharing one frame, each processed
// against its own instance, used by the cross-shard flush coalescing). When
// Subs is non-empty, Reg and Msg are ignored.
//
// Epoch stamps the sender's configuration epoch (internal/config). Objects
// refuse requests whose epoch is older than their active configuration's
// with a MsgWrongEpoch reply carrying the newer config; epoch 0 is the
// wildcard stamp (config-plane rounds, Direct operator connections) and is
// never refused.
type Request struct {
	ID    uint64
	From  types.ProcID
	Epoch uint64
	Reg   int
	Msg   types.Message
	Subs  []SubReq
}

// Response is an object→client message. ID echoes the request's tag. A
// response to a single request carries Msg; a response to a batch carries
// Subs — one entry per sub-request the object chose to answer (a withheld
// sub-reply is simply absent, so a flaky object can drop individual
// sub-bundles), matched to the request's subs by Reg.
type Response struct {
	ID     uint64
	Server int
	Msg    types.Message
	Subs   []SubReq
}

// GobEncoder writes envelopes to a gob stream — the PERSISTED codec: WAL
// generations are gob streams (one per generation); the on-disk format stays
// gob although the live sockets moved to the binary codec.
type GobEncoder struct{ enc *gob.Encoder }

// NewGobEncoder returns a GobEncoder on w.
func NewGobEncoder(w io.Writer) *GobEncoder { return &GobEncoder{enc: gob.NewEncoder(w)} }

// Encode writes one envelope.
func (e *GobEncoder) Encode(v any) error {
	if err := e.enc.Encode(v); err != nil {
		return fmt.Errorf("wire: encode: %w", err)
	}
	return nil
}

// GobDecoder reads envelopes from a gob stream (see GobEncoder).
type GobDecoder struct{ dec *gob.Decoder }

// NewGobDecoder returns a GobDecoder on r.
func NewGobDecoder(r io.Reader) *GobDecoder { return &GobDecoder{dec: gob.NewDecoder(r)} }

// DecodeRequest reads one request.
func (d *GobDecoder) DecodeRequest() (Request, error) {
	var req Request
	if err := d.dec.Decode(&req); err != nil {
		if err == io.EOF {
			return req, io.EOF
		}
		return req, fmt.Errorf("wire: decode request: %w", err)
	}
	return req, nil
}

// DecodeResponse reads one response.
func (d *GobDecoder) DecodeResponse() (Response, error) {
	var rsp Response
	if err := d.dec.Decode(&rsp); err != nil {
		if err == io.EOF {
			return rsp, io.EOF
		}
		return rsp, fmt.Errorf("wire: decode response: %w", err)
	}
	return rsp, nil
}
