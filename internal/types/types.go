// Package types defines the shared vocabulary of the robust atomic storage
// implementation: register values, timestamp-value pairs, process identities
// and the wire message exchanged between clients and storage objects.
//
// The model extends Section 2 of "The Complexity of Robust Atomic Storage"
// (Dobre, Guerraoui, Majuntke, Suri, Vukolić; PODC 2011) from single-writer
// to multi-writer registers: writers w_1..w_W, readers r_1..r_R and storage
// objects s_1..s_S communicate over reliable point-to-point channels. Objects
// only reply to client messages; clients fail by crashing; up to t objects
// are Byzantine.
//
// The multi-writer extension replaces the paper's scalar timestamp with the
// classical lexicographically ordered (Seq, WriterID) pair (as in multi-writer
// ABD and the multi-writer data stores of Chockler et al. and RADON): two
// writers that concurrently pick the same sequence number still issue
// distinct, totally ordered timestamps. A writer learns the sequence number
// to exceed adaptively (internal/core): the optimistic fast path certifies
// its cached successor inside the 2-round write itself — the SWMR optimum —
// and only actual interference costs the extra discovery round the PODC
// 2011 lower bounds price into giving up the single-writer assumption.
package types

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// Value is the register value domain. The initial register value is the
// reserved Bottom value, which is not a valid input to a write operation
// (Section 2.2 of the paper).
type Value string

// Bottom is the initial register value ⊥.
const Bottom Value = ""

// IsBottom reports whether v is the reserved initial value ⊥.
func (v Value) IsBottom() bool { return v == Bottom }

// String implements fmt.Stringer, rendering ⊥ visibly.
func (v Value) String() string {
	if v.IsBottom() {
		return "⊥"
	}
	return string(v)
}

// Digest returns a 64-bit digest of v: with a timestamp it names a stored
// value in a conditional READ's have-list (see Have). Timestamps alone name
// genuine values, but a crashed write-back owner's re-issued sequence number
// can leave correct objects holding DIFFERENT values under one timestamp
// (see core.ResumeSeq), and the digest is what keeps an object from
// eliding a value the client does not actually hold in that residual case.
// It is not cryptographic and need not be: a Byzantine object gains nothing
// from a collision (it may always answer as if it held the client's value),
// so only accidental collisions between values correct writers issued under
// one timestamp matter. The function is fixed — client and object processes
// must agree on it — and never returns 0, so callers memoize it with 0
// meaning "not computed". Eight bytes per multiply: ~5 µs for a 35 KB table.
func (v Value) Digest() uint64 {
	const m1, m2 = 0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9
	s := string(v)
	h := uint64(len(s))*m2 + m1
	for len(s) >= 8 {
		k := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		h = bits.RotateLeft64((h^k)*m1, 29)
		s = s[8:]
	}
	var k uint64
	for i := 0; i < len(s); i++ {
		k |= uint64(s[i]) << (8 * uint(i))
	}
	h = (h ^ k) * m1
	h ^= h >> 30
	h *= m2
	h ^= h >> 27
	if h == 0 {
		return 1
	}
	return h
}

// An edit derives a value from another the receiver already holds, so that a
// writer changing 130 bytes of a 36 KB value moves 130 bytes. Its encoding:
//
//	[uvarint len(result)] then per splice, in ascending offset order,
//	[uvarint gap] [uvarint del] [uvarint len(ins)] [ins bytes]
//
// where gap is the distance from the end of the previous splice's deleted
// range (the start of the base for the first) to this one's offset — so
// splices can neither overlap nor run backwards by construction — del the
// number of base bytes dropped there and ins what takes their place. Bytes
// outside every splice are the base's. The receiver is value-agnostic: it
// never learns what the bytes mean.

// Edit is an edit under construction: Splice its changes in ascending
// offset order, then take Value. Reset starts the next one in the same
// buffer.
type Edit struct {
	body []byte
	end  int // end of the previous splice's deleted range in the base
	grow int // net growth so far: inserted minus deleted bytes
}

// Splice records that ins replaces the del bytes at off of the base. off
// must not precede the end of the previous splice.
func (e *Edit) Splice(off, del int, ins []byte) {
	e.body = binary.AppendUvarint(e.body, uint64(off-e.end))
	e.body = binary.AppendUvarint(e.body, uint64(del))
	e.body = binary.AppendUvarint(e.body, uint64(len(ins)))
	e.body = append(e.body, ins...)
	e.end, e.grow = off+del, e.grow+len(ins)-del
}

// Reset empties e, keeping its buffer.
func (e *Edit) Reset() { *e = Edit{body: e.body[:0]} }

// Value returns the encoded edit, for a base of baseLen bytes.
func (e *Edit) Value(baseLen int) Value {
	var size [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(size[:], uint64(baseLen+e.grow))
	var b strings.Builder
	b.Grow(n + len(e.body))
	b.Write(size[:n])
	b.Write(e.body)
	return Value(b.String())
}

// Splice applies edit to v and returns the value it derives. ok is false when
// edit is malformed, reaches past the end of v, or does not produce the
// length it declares: edits arrive from the network and from disk. Whatever
// edit says, no more is allocated than v and edit are long together.
func (v Value) Splice(edit Value) (_ Value, ok bool) {
	rest := string(edit)
	cut := func() int {
		x, w := binary.Uvarint([]byte(rest[:min(len(rest), binary.MaxVarintLen64)]))
		if w <= 0 || x > uint64(len(v)+len(edit)) {
			ok = false
			return 0
		}
		rest = rest[w:]
		return int(x)
	}
	ok = true
	size := cut()
	var b strings.Builder
	b.Grow(size)
	at := 0 // how much of v is consumed
	for ok && rest != "" {
		gap, del, ins := cut(), cut(), cut()
		if !ok || ins > len(rest) || gap+del > len(v)-at {
			return "", false
		}
		b.WriteString(string(v[at : at+gap]))
		b.WriteString(rest[:ins])
		rest, at = rest[ins:], at+gap+del
	}
	b.WriteString(string(v[at:]))
	if !ok || b.Len() != size {
		return "", false
	}
	return Value(b.String()), true
}

// Delta says what a value about to be written derives from: Edit turns
// Base's value into it. The zero Delta derives from nothing.
type Delta struct {
	Base Pair
	Edit Value
}

// TS is a multi-writer register timestamp: a lexicographically ordered
// (Seq, WriterID) pair. Seq is the sequence number a writer picked in its
// timestamp-discovery round; WID is the writer's identity, breaking ties
// between writers that concurrently picked the same sequence number. The
// zero TS is the timestamp of the initial pair holding ⊥. TS is comparable
// (usable as a map key).
type TS struct {
	Seq int64
	WID int64
}

// At is shorthand for a single-writer timestamp (WID 0) — the form every
// pre-multi-writer timestamp of this repository takes.
func At(seq int64) TS { return TS{Seq: seq} }

// Less orders timestamps lexicographically by (Seq, WID).
func (t TS) Less(u TS) bool {
	if t.Seq != u.Seq {
		return t.Seq < u.Seq
	}
	return t.WID < u.WID
}

// IsZero reports whether t is the initial timestamp.
func (t TS) IsZero() bool { return t == TS{} }

// Next returns the successor timestamp owned by writer wid: sequence number
// one past t's, tagged with wid.
func (t TS) Next(wid int64) TS { return TS{Seq: t.Seq + 1, WID: wid} }

// MaxTS returns the lexicographically larger timestamp.
func MaxTS(a, b TS) TS {
	if a.Less(b) {
		return b
	}
	return a
}

// String implements fmt.Stringer. Single-writer timestamps (WID 0) render as
// the bare sequence number, matching the repository's pre-multi-writer
// rendering; multi-writer timestamps render as seq.wid.
func (t TS) String() string {
	if t.WID == 0 {
		return strconv.FormatInt(t.Seq, 10)
	}
	return strconv.FormatInt(t.Seq, 10) + "." + strconv.FormatInt(t.WID, 10)
}

// Pair is a timestamp-value pair. Timestamps are totally ordered by the
// lexicographic (Seq, WriterID) order; the pair with the zero TS is the
// initial pair holding ⊥. Pair is comparable (usable as a map key), which
// the protocols rely on for exact-match certification of genuinely written
// pairs.
type Pair struct {
	TS  TS
	Val Value
}

// BottomPair is the initial register state (zero timestamp, value ⊥).
var BottomPair = Pair{TS: TS{}, Val: Bottom}

// Less orders pairs by timestamp. Values never disagree for equal timestamps
// of genuine pairs because a timestamp embeds its writer's identity and each
// writer issues any given sequence number at most once.
func (p Pair) Less(q Pair) bool { return p.TS.Less(q.TS) }

// IsBottom reports whether p is the initial pair.
func (p Pair) IsBottom() bool { return p.TS.IsZero() }

// String implements fmt.Stringer.
func (p Pair) String() string {
	return "(" + p.TS.String() + "," + p.Val.String() + ")"
}

// MaxPair returns the pair with the larger timestamp.
func MaxPair(a, b Pair) Pair {
	if b.TS.Less(a.TS) || a.TS == b.TS {
		return a
	}
	return b
}

// Token is a secret value attached to write phases in the stronger model of
// [DMSS09] (Section 5 of the paper). Tokens are unguessable nonces: a
// Byzantine object can replay tokens it received but cannot fabricate ones it
// has not seen. Token 0 means "no token" (unauthenticated model).
type Token uint64

// ProcKind distinguishes the three disjoint process sets of the model.
type ProcKind int

// Process kinds. Enums start at one so the zero ProcID is invalid.
const (
	KindWriter ProcKind = iota + 1
	KindReader
	KindServer
)

// String implements fmt.Stringer.
func (k ProcKind) String() string {
	switch k {
	case KindWriter:
		return "w"
	case KindReader:
		return "r"
	case KindServer:
		return "s"
	default:
		return "?"
	}
}

// ProcID identifies a process. Writers are {KindWriter, i} with i ≥ 0 (i is
// the WriterID embedded in the timestamps the writer issues); readers are
// {KindReader, i} with i ≥ 1; servers (storage objects) are {KindServer, i}
// with i ≥ 1 matching the paper's s_1..s_S.
type ProcID struct {
	Kind ProcKind
	Idx  int
}

// Writer is the identity of writer 0 — the default writer, and the only one
// of the original single-writer deployments.
var Writer = ProcID{Kind: KindWriter}

// WriterID returns the identity of writer w_i (0-based; 0 is the default
// writer). Distinct concurrent writer processes must use distinct ids.
func WriterID(i int) ProcID { return ProcID{Kind: KindWriter, Idx: i} }

// Reader returns the identity of reader r_i (1-based).
func Reader(i int) ProcID { return ProcID{Kind: KindReader, Idx: i} }

// Server returns the identity of storage object s_i (1-based).
func Server(i int) ProcID { return ProcID{Kind: KindServer, Idx: i} }

// IsClient reports whether the process is a writer or reader.
func (p ProcID) IsClient() bool { return p.Kind == KindWriter || p.Kind == KindReader }

// String implements fmt.Stringer. The default writer renders as the paper's
// bare "w"; further writers carry their id.
func (p ProcID) String() string {
	if p.Kind == KindWriter && p.Idx == 0 {
		return "w"
	}
	return fmt.Sprintf("%s%d", p.Kind, p.Idx)
}

// RegClass distinguishes the register instances multiplexed onto one physical
// object by the regular→atomic transformation (Section 5, footnote 6): one
// register shared by all writers plus one write-back register per reader.
type RegClass int

// Register classes.
const (
	// RegWriter is the writers' MWMR regular register: every writer writes
	// here, at timestamps totally ordered by (Seq, WriterID).
	RegWriter RegClass = iota + 1
	// RegReader is reader i's write-back register, single-writer-owned by
	// that reader (its timestamps keep WID 0).
	RegReader
)

// RegID identifies one register instance hosted on the storage objects.
type RegID struct {
	Class RegClass
	Idx   int // reader index for RegReader; 0 for RegWriter
}

// WriterReg is the RegID of the writer's register.
var WriterReg = RegID{Class: RegWriter}

// ReaderReg returns the RegID of reader i's write-back register.
func ReaderReg(i int) RegID { return RegID{Class: RegReader, Idx: i} }

// String implements fmt.Stringer.
func (r RegID) String() string {
	if r.Class == RegWriter {
		return "REGw"
	}
	return fmt.Sprintf("REGr%d", r.Idx)
}

// MsgKind enumerates protocol message types across all implemented protocols.
type MsgKind int

// Message kinds. One shared message vocabulary keeps the simulator, the
// in-process clusters and the TCP wire format uniform across protocols.
const (
	// Regular register protocol (internal/regular) and derivatives.
	MsgPreWrite  MsgKind = iota + 1 // writer round 1: store pair in pw
	MsgWrite                        // writer round 2: store pair in w
	MsgRead1                        // reader round 1 / writer discovery: query (pw, w)
	MsgWriteBack                    // reader round 2: install certified pair
	MsgAck                          // generic acknowledgement
	MsgState                        // reply carrying (pw, w) state

	// ABD protocol (internal/abd).
	MsgABDQuery // read phase 1 / write phase 0: query timestamp
	MsgABDStore // store a pair
	MsgABDVal   // reply carrying a pair

	_ // was MsgConfirm (never sent; the number stays reserved)

	// Multiplexed physical round of the atomic transformation.
	MsgMux // bundle of per-register parts (see Address)

	// Dynamic reconfiguration (internal/config): an object refusing a
	// request stamped with a configuration epoch older than its active one.
	// The reply's Pair carries the refusing object's view of the new
	// configuration: Pair.TS.Seq is the active epoch and Pair.Val the
	// encoded config.Config, so redirected clients can refetch without an
	// extra round (the hint is still certified by a quorum read before it
	// is trusted — a Byzantine object can fabricate it).
	MsgWrongEpoch

	// Value-eliding writes: an object's answer to a conditioned PREWRITE or
	// WRITE (see Message.Have) naming a pair it does not hold. Nothing was
	// applied; PW.TS and W.TS report the timestamps it does hold, and the
	// client re-sends the phase with its value. No acknowledgement
	// accumulator counts it (they match MsgAck).
	MsgNeedValue
)

// String implements fmt.Stringer.
func (k MsgKind) String() string {
	switch k {
	case MsgPreWrite:
		return "PREWRITE"
	case MsgWrite:
		return "WRITE"
	case MsgRead1:
		return "READ1"
	case MsgWriteBack:
		return "WRITEBACK"
	case MsgAck:
		return "ACK"
	case MsgState:
		return "STATE"
	case MsgABDQuery:
		return "ABD_QUERY"
	case MsgABDStore:
		return "ABD_STORE"
	case MsgABDVal:
		return "ABD_VAL"
	case MsgMux:
		return "MUX"
	case MsgWrongEpoch:
		return "WRONG_EPOCH"
	case MsgNeedValue:
		return "NEED_VALUE"
	default:
		return "MSG(" + strconv.Itoa(int(k)) + ")"
	}
}

// Have names a stored value by timestamp and digest. In a conditional READ's
// have-list: the client already holds it, so an object whose slot matches
// both may answer with the timestamp alone. As a write's condition
// (Message.Have): the OBJECT must hold it for the write to apply.
type Have struct {
	TS     TS
	Digest uint64
}

// MsgFlags carries the value-elision bits of READ requests and their STATE
// replies, and of conditioned writes.
type MsgFlags uint8

// Message flags.
const (
	// FlagNoValues (READ request): the client only compares timestamps —
	// the reply strips every value, like the PREWRITE acknowledgement.
	FlagNoValues MsgFlags = 1 << iota
	// FlagElidedPW / FlagElidedW (STATE reply): the slot's value is withheld
	// and only its timestamp travels — because the request's have-list named
	// the slot's (timestamp, digest), or asked for no values at all.
	FlagElidedPW
	FlagElidedW
	// FlagSplice (conditioned PREWRITE/WRITE): Pair.Val holds not the value
	// but the edit (Value.Splice) that derives it from the pair Have[0]
	// names.
	FlagSplice
)

// SubMsg is one PART of a message: a register-level payload and the register
// it addresses (in a request) or answers for (in a reply).
type SubMsg struct {
	Reg RegID
	Msg Message
}

// Register addressing. One object hosts the R+1 registers of an atomic
// register (Section 5: the writers' register and the readers' write-back
// registers share objects and physical rounds), and one message reaches any
// number of them: a BARE message — any kind but MsgMux — is one part,
// addressed at WriterReg; a MsgMux bundle carries the parts its Sub lists. A
// reply has the shape of its request. That rule is decided by the four
// functions below and spelled nowhere else: clients build requests and walk
// replies through proto.RegAcc, objects through Store.Handle.

// Address returns the message carrying parts: the part itself when it is the
// only one and addresses WriterReg (so a single-register protocol and the
// transformation's shared register meet in one encoding), else a bundle
// holding a copy of parts — the caller keeps its slice.
func Address(parts []SubMsg) Message {
	if len(parts) == 1 && parts[0].Reg == WriterReg {
		return parts[0].Msg
	}
	return Message{Kind: MsgMux, Sub: append([]SubMsg(nil), parts...)}
}

// NumParts returns how many parts m carries.
func (m *Message) NumParts() int {
	if m.Kind == MsgMux {
		return len(m.Sub)
	}
	return 1
}

// Part returns the register part i (0 ≤ i < NumParts) belongs to and the part
// itself, in place: a bundle's i-th entry, or the bare message.
func (m *Message) Part(i int) (RegID, *Message) {
	if m.Kind == MsgMux {
		return m.Sub[i].Reg, &m.Sub[i].Msg
	}
	return WriterReg, m
}

// ReplyTo returns the empty reply of req's shape — bare, or a bundle naming
// req's registers in req's order — for the object to fill in through Part:
// one allocation per bundle, none per part.
func ReplyTo(req *Message) Message {
	if req.Kind != MsgMux {
		return Message{}
	}
	reply := Message{Kind: MsgMux, Sub: make([]SubMsg, len(req.Sub))}
	for i := range req.Sub {
		reply.Sub[i].Reg = req.Sub[i].Reg
	}
	return reply
}

// Message is the single wire message type. Fields beyond Kind are
// kind-specific; unused fields stay at their zero values. Using one concrete
// struct (rather than an interface hierarchy) keeps messages trivially
// copyable, comparable where needed and forgeable by simulated Byzantine
// objects (internal/wire is its binary encoding).
type Message struct {
	Kind MsgKind

	// Pair carries the written / queried / written-back pair.
	Pair Pair

	// PW and W carry an object's state in MsgState replies.
	PW Pair
	W  Pair

	// Token carries the secret value of the [DMSS09] model; TokenPW is the
	// token the object received with its current pw pair, Token the one with
	// its current w pair (or the fresh token on writes).
	Token   Token
	TokenPW Token

	// Seq numbers rounds within an operation so late replies from earlier
	// rounds are never mistaken for current-round replies.
	Seq int

	// Sub carries the parts of a MsgMux bundle (see Address).
	Sub []SubMsg

	// Have (READ requests) lists the pairs of the addressed register the
	// client already holds; an empty list is the unconditioned read. At most
	// one entry per timestamp, so an elided reply slot names its value by
	// timestamp alone. Treated as immutable once sent.
	//
	// On a PREWRITE, WRITE or WRITEBACK a non-empty Have is the write's
	// condition, and an empty one the unconditioned write: Have[0] names a
	// pair the object must hold in pw or w, and the written value is that
	// pair's — as it stands when Have[0].TS is Pair.TS (a WRITE by reference:
	// promote the pair the PREWRITE stored), edited by Pair.Val under
	// FlagSplice. An object that does not hold the named pair changes
	// nothing and answers MsgNeedValue.
	Have []Have
	// Flags carries the value-elision bits (see MsgFlags).
	Flags MsgFlags
}

// NeedsValue reports whether any part of reply m is a MsgNeedValue: the
// object refused a conditioned write and is owed the phase in full.
func (m *Message) NeedsValue() bool {
	for i, n := 0, m.NumParts(); i < n; i++ {
		if _, part := m.Part(i); part.Kind == MsgNeedValue {
			return true
		}
	}
	return false
}

// TraceNote renders a compact payload summary for per-object trace events.
// Multiplexed bundles list the register instances they actually carry —
// which is exactly what a sub-bundle-withholding fault hides from the
// accumulators — other kinds render as their name.
func (m Message) TraceNote() string {
	if m.Kind != MsgMux {
		return m.Kind.String()
	}
	var b strings.Builder
	b.WriteString("MUX[")
	for i, sm := range m.Sub {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(sm.Reg.String())
	}
	b.WriteByte(']')
	return b.String()
}

// Clone returns a deep copy of m (the Sub and Have slices are copied).
func (m Message) Clone() Message {
	out := m
	if m.Have != nil {
		out.Have = append([]Have(nil), m.Have...)
	}
	if m.Sub != nil {
		out.Sub = make([]SubMsg, len(m.Sub))
		for i, sm := range m.Sub {
			out.Sub[i] = SubMsg{Reg: sm.Reg, Msg: sm.Msg.Clone()}
		}
	}
	return out
}

// String implements fmt.Stringer.
func (m Message) String() string {
	switch m.Kind {
	case MsgState:
		return fmt.Sprintf("STATE{pw:%s w:%s}", m.PW, m.W)
	case MsgMux:
		return fmt.Sprintf("MUX{%d subs}", len(m.Sub))
	default:
		return fmt.Sprintf("%s%s", m.Kind, m.Pair)
	}
}
