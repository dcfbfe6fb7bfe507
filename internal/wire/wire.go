// Package wire defines the TCP wire format of the storage protocol: a
// request envelope carrying the client identity, the target register and
// the message, and a response envelope carrying the object's reply. One
// request yields at most one response (objects reply to a message before
// receiving any other, per the model); responses are matched to their
// requests by the client-chosen 64-bit request ID every frame carries, so
// any number of requests may be in flight on one connection and replies may
// complete out of order.
//
// The codec (codec.go) is a hand-rolled length-prefixed binary format,
// generation 6, header byte 0x06: each frame is tagged with the request ID
// and carries either a single register message or a BATCH of per-register
// (Reg, Msg) sub-requests, so one frame can carry a whole wave of register
// rounds (the cross-shard group commit of the Store layer).
//
// Versioning: the format is not negotiated. A frame whose first byte is not
// this generation's is refused with ErrVersion, so clients and daemons of one
// deployment run the same generation and upgrade in lockstep; a mixed
// deployment fails loudly on the first message without corrupting state.
//
// The same frame is the write-ahead log's record (internal/persist logs what
// AppendRequest builds and replays it through ParseRequest), so the wire
// generation byte versions the log as well: a generation bump is a WAL bump.
// A log written under another generation is refused with persist.ErrFormat,
// never guessed at; a planned upgrade therefore stops daemons cleanly —
// storaged compacts on SIGTERM, so the new binary boots from a snapshot
// (versioned on its own, server.ErrSnapshotVersion) and an empty log — and
// only a crash replays a log, under the binary that wrote it.
package wire

import "robustatomic/internal/types"

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
