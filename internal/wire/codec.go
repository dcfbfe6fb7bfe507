// The live binary codec (wire generation 6).
//
// Every envelope is one frame:
//
//	[0x07 version byte] [uvarint payload length] [payload]
//
// Request payload:
//
//	[uvarint ID] [varint From.Kind] [varint From.Idx] [uvarint Epoch]
//	[tag byte] body
//
// Response payload:
//
//	[uvarint ID] [varint Server] [tag byte] body
//
// ID is the client-chosen request tag (echoed by the response — the demux
// key that makes pipelining possible). The tag byte selects the body shape:
//
//	tagSingle (0x01): [varint Reg] [message]            (requests)
//	                  [message]                         (responses)
//	tagBatch  (0x02): [uvarint count] then per entry
//	                  [varint Reg] [message]            (both directions)
//
// Exactly one tag bit must be set and a batch must carry at least one
// entry; anything else is rejected (the encoder emits tagSingle whenever
// Subs is empty, so there is exactly one canonical encoding per envelope).
//
// Message: [varint Kind] [varint Seq] [mask byte], then — in mask-bit
// order — the fields the mask declares present:
//
//	bit 0: Pair    (pair)
//	bit 1: PW      (pair)
//	bit 2: W       (pair)
//	bit 3: tokens  ([uvarint Token] [uvarint TokenPW])
//	bit 4: Sub     ([uvarint count] then per entry
//	                [varint Reg.Class] [varint Reg.Idx] [message])
//	bit 5: W == PW (no body: W is PW, bit 2 must be clear and bit 1 set —
//	                a settled register's reply ships ONE copy of the value,
//	                and the decoder shares one string between the slots)
//	bit 6: Have    ([uvarint count ≥ 1] then per entry
//	                [varint TS.Seq] [varint TS.WID] [8 bytes digest, LE])
//	bit 7: Flags   ([flags byte, non-zero, known bits only])
//
// Generation 6 (value-eliding writes) assigns no new mask bit: a write's
// condition rides in the have-list and its edit in Pair's value bytes, under
// a new flag bit (types.FlagSplice), and objects gained a reply kind
// (types.MsgNeedValue). A generation-5 peer would apply a conditioned write
// as a write of its edit bytes, hence the bump.
//
// pair: [varint TS.Seq] [varint TS.WID] [uvarint len(Val)] [Val bytes]
//
// The encoder sets bit 5 whenever W equals a non-zero PW, so there is still
// exactly one encoding per message; the decoder rejects the forms the
// encoder never emits (bit 5 with bit 2 or without bit 1, an empty
// have-list, a zero or unknown flags byte).
//
// Most protocol messages (acks, read queries) carry none of the optional
// fields, so they cost ~5 bytes of payload; the mask keeps them from paying
// for the pairs they don't carry. Signed fields use zigzag varints
// (binary.AppendVarint), lengths and tokens plain uvarints. The encoder
// builds each frame in a buffer owned by the Encoder and writes it with a
// single Write call; the decoder reads each payload into a buffer owned by
// the Decoder — both are reused across messages, so a long-lived connection
// allocates only the strings that must outlive the buffer. Neither is safe
// for concurrent use (transports already serialize per connection).
//
// The decoder is paranoid: it bounds the frame size, the nesting depth and
// every count against the remaining payload, and rejects trailing bytes —
// a malformed or hostile peer yields an error, never a panic or an
// unbounded allocation.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"robustatomic/internal/types"
)

// wireVersion is the live wire generation's frame header byte.
const wireVersion = 0x07

// Frame tag bytes: a frame carries either one register message or a batch
// of per-register sub-requests — never both, never neither.
const (
	tagSingle = 0x01
	tagBatch  = 0x02
)

// MaxFrame bounds a frame's payload size: a forged length must not make the
// decoder allocate unboundedly, and the encoder refuses what the peer would
// refuse (ErrFrameTooLarge). A variable only so tests can exercise the
// bound without 64 MB payloads; production code never writes it.
var MaxFrame = 64 << 20

// maxSubDepth bounds message nesting. The protocols nest exactly once (a
// MUX bundle of plain messages); one spare level is allowed for slack.
const maxSubDepth = 2

// ErrVersion reports a frame from a different wire generation — the peer
// must be upgraded in lockstep (see the package comment).
var ErrVersion = errors.New("wire: protocol generation mismatch (upgrade clients and daemons in lockstep)")

// ErrFrameTooLarge reports an envelope whose encoding exceeds MaxFrame.
// Nothing was written: the stream stays usable, so a transport can skip
// the one oversize message instead of tearing the connection down under
// every request pipelined on it.
var ErrFrameTooLarge = errors.New("wire: encoded frame exceeds the frame bound")

// Encoder writes binary frames to a stream. Not safe for concurrent use.
type Encoder struct {
	w     io.Writer
	frame []byte // reused frame build buffer
}

// NewEncoder returns an Encoder on w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// EncodeRequest writes one request envelope as a single frame.
func (e *Encoder) EncodeRequest(req Request) error {
	f, err := AppendRequest(e.frame[:0], req)
	return e.write(f, err)
}

// EncodeResponse writes one response envelope as a single frame.
func (e *Encoder) EncodeResponse(rsp Response) error {
	f, err := appendResponse(e.frame[:0], rsp)
	return e.write(f, err)
}

// write writes the frame f with a single Write call and keeps its buffer for
// the next one, so a long-lived connection stops allocating once the buffer
// reaches the connection's peak message size.
func (e *Encoder) write(f []byte, err error) error {
	e.frame = f
	if err != nil {
		return err
	}
	if _, err := e.w.Write(f); err != nil {
		return fmt.Errorf("wire: encode: %w", err)
	}
	return nil
}

// AppendRequest appends req's frame to dst — the one serialisation of a
// request, on a socket (Encoder) and in a WAL record (internal/persist). An
// envelope past MaxFrame is refused with ErrFrameTooLarge and dst comes back
// at its original length.
func AppendRequest(dst []byte, req Request) ([]byte, error) {
	b := openFrame(dst)
	b = binary.AppendUvarint(b, req.ID)
	b = binary.AppendVarint(b, int64(req.From.Kind))
	b = binary.AppendVarint(b, int64(req.From.Idx))
	b = binary.AppendUvarint(b, req.Epoch)
	if len(req.Subs) > 0 {
		b = appendBatch(b, req.Subs)
	} else {
		b = append(b, tagSingle)
		b = binary.AppendVarint(b, int64(req.Reg))
		b = appendMessage(b, &req.Msg, 0)
	}
	return sealFrame(b, len(dst))
}

// appendResponse appends rsp's frame to dst (see AppendRequest).
func appendResponse(dst []byte, rsp Response) ([]byte, error) {
	b := openFrame(dst)
	b = binary.AppendUvarint(b, rsp.ID)
	b = binary.AppendVarint(b, int64(rsp.Server))
	if len(rsp.Subs) > 0 {
		b = appendBatch(b, rsp.Subs)
	} else {
		b = append(b, tagSingle)
		b = appendMessage(b, &rsp.Msg, 0)
	}
	return sealFrame(b, len(dst))
}

func appendBatch(b []byte, subs []SubReq) []byte {
	b = append(b, tagBatch)
	b = binary.AppendUvarint(b, uint64(len(subs)))
	for i := range subs {
		b = binary.AppendVarint(b, int64(subs[i].Reg))
		b = appendMessage(b, &subs[i].Msg, 0)
	}
	return b
}

// frameRoom is what openFrame leaves ahead of a payload under construction:
// the version byte and the widest length the header may need.
const frameRoom = 1 + binary.MaxVarintLen64

func openFrame(dst []byte) []byte { return append(dst, make([]byte, frameRoom)...) }

// sealFrame turns b[start:] — frameRoom spare bytes, then a payload — into
// [version][uvarint length][payload], closing the gap the header left unused
// (the payload's length is not known until it is built; this move is the
// frame's one copy).
func sealFrame(b []byte, start int) ([]byte, error) {
	payload := b[start+frameRoom:]
	if len(payload) > MaxFrame {
		return b[:start], fmt.Errorf("%w (%d-byte payload)", ErrFrameTooLarge, len(payload))
	}
	b = binary.AppendUvarint(append(b[:start], wireVersion), uint64(len(payload)))
	return append(b, payload...), nil
}

// Decoder reads binary frames from a stream. Not safe for concurrent use.
type Decoder struct {
	r   *bufio.Reader
	buf []byte // reused payload buffer
}

// NewDecoder returns a Decoder on r.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: bufio.NewReader(r)} }

// Ready reports whether the next frame is already whole in the decoder's
// buffer, so that decoding it reads nothing from the stream. It only peeks at
// buffered bytes; false covers a frame not yet (fully) arrived as well as a
// header the next decode will refuse.
func (d *Decoder) Ready() bool {
	b, _ := d.r.Peek(d.r.Buffered())
	if len(b) == 0 || b[0] != wireVersion {
		return false
	}
	n, k := binary.Uvarint(b[1:])
	return k > 0 && n <= uint64(len(b)-1-k)
}

// DecodeRequest reads one request.
func (d *Decoder) DecodeRequest() (Request, error) {
	payload, err := d.readFrame()
	if err != nil {
		return Request{}, err
	}
	return parseRequest(payload)
}

// ParseRequest parses frame, which must hold exactly one request frame as
// AppendRequest builds it — a stored record; a stream goes through a Decoder.
// The request's values are copies, so frame may be reused.
func ParseRequest(frame []byte) (Request, error) {
	if len(frame) == 0 {
		return Request{}, fmt.Errorf("wire: decode: empty frame")
	}
	if frame[0] != wireVersion {
		return Request{}, versionError(frame[0])
	}
	n, w := binary.Uvarint(frame[1:])
	if w <= 0 || n > uint64(MaxFrame) || n != uint64(len(frame)-1-w) {
		return Request{}, fmt.Errorf("wire: decode: frame length %d in a %d-byte frame", n, len(frame))
	}
	return parseRequest(frame[1+w:])
}

// parseRequest parses a request frame's payload.
func parseRequest(payload []byte) (Request, error) {
	var req Request
	var kind, idx int64
	var err error
	if req.ID, payload, err = cutUvarint(payload); err == nil {
		if kind, payload, err = cutVarint(payload); err == nil {
			if idx, payload, err = cutVarint(payload); err == nil {
				req.Epoch, payload, err = cutUvarint(payload)
			}
		}
	}
	if err != nil {
		return Request{}, fmt.Errorf("wire: decode request: %w", err)
	}
	req.From = types.ProcID{Kind: types.ProcKind(kind), Idx: int(idx)}
	if len(payload) == 0 {
		return Request{}, fmt.Errorf("wire: decode request: truncated frame tag")
	}
	tag := payload[0]
	payload = payload[1:]
	switch tag {
	case tagSingle:
		var reg int64
		if reg, payload, err = cutVarint(payload); err != nil {
			return Request{}, fmt.Errorf("wire: decode request: %w", err)
		}
		req.Reg = int(reg)
		if req.Msg, payload, err = decodeMessage(payload, 0); err != nil {
			return Request{}, fmt.Errorf("wire: decode request: %w", err)
		}
	case tagBatch:
		if req.Subs, payload, err = cutBatch(payload); err != nil {
			return Request{}, fmt.Errorf("wire: decode request: %w", err)
		}
	default:
		return Request{}, fmt.Errorf("wire: decode request: unknown frame tag 0x%02x", tag)
	}
	if len(payload) != 0 {
		return Request{}, fmt.Errorf("wire: decode request: %d trailing bytes", len(payload))
	}
	return req, nil
}

// DecodeResponse reads one response.
func (d *Decoder) DecodeResponse() (Response, error) {
	payload, err := d.readFrame()
	if err != nil {
		return Response{}, err
	}
	var rsp Response
	var server int64
	if rsp.ID, payload, err = cutUvarint(payload); err == nil {
		server, payload, err = cutVarint(payload)
	}
	if err != nil {
		return Response{}, fmt.Errorf("wire: decode response: %w", err)
	}
	rsp.Server = int(server)
	if len(payload) == 0 {
		return Response{}, fmt.Errorf("wire: decode response: truncated frame tag")
	}
	tag := payload[0]
	payload = payload[1:]
	switch tag {
	case tagSingle:
		if rsp.Msg, payload, err = decodeMessage(payload, 0); err != nil {
			return Response{}, fmt.Errorf("wire: decode response: %w", err)
		}
	case tagBatch:
		if rsp.Subs, payload, err = cutBatch(payload); err != nil {
			return Response{}, fmt.Errorf("wire: decode response: %w", err)
		}
	default:
		return Response{}, fmt.Errorf("wire: decode response: unknown frame tag 0x%02x", tag)
	}
	if len(payload) != 0 {
		return Response{}, fmt.Errorf("wire: decode response: %d trailing bytes", len(payload))
	}
	return rsp, nil
}

// cutBatch cuts a batch body — [uvarint count]([varint Reg][message])* —
// off the front of b, returning the rest. The count is bounded against the
// remaining payload before anything is allocated, and the slice grows as
// entries actually parse (same forged-count defense as message bundles).
func cutBatch(b []byte) ([]SubReq, []byte, error) {
	n, b, err := cutUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		// Canonical form: an empty batch is encoded as tagSingle, and a
		// fully-withheld batch response is simply not sent.
		return nil, nil, fmt.Errorf("empty batch")
	}
	// Each entry costs ≥ 4 bytes (reg varint + kind + seq + mask).
	if n > uint64(len(b)/4)+1 {
		return nil, nil, fmt.Errorf("batch count %d exceeds payload", n)
	}
	subs := make([]SubReq, 0, min(n, 64))
	for i := uint64(0); i < n; i++ {
		var sub SubReq
		var reg int64
		if reg, b, err = cutVarint(b); err != nil {
			return nil, nil, err
		}
		sub.Reg = int(reg)
		if sub.Msg, b, err = decodeMessage(b, 0); err != nil {
			return nil, nil, err
		}
		subs = append(subs, sub)
	}
	return subs, b, nil
}

// readFrame reads one frame header and its payload into the reused buffer.
// io.EOF is returned verbatim on a clean frame boundary (connection
// closed), as the transports' read loops expect.
func (d *Decoder) readFrame() ([]byte, error) {
	ver, err := d.r.ReadByte()
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: decode: %w", err)
	}
	if ver != wireVersion {
		return nil, versionError(ver)
	}
	n, err := binary.ReadUvarint(d.r)
	if err != nil {
		return nil, fmt.Errorf("wire: decode: frame length: %w", err)
	}
	if n > uint64(MaxFrame) {
		return nil, fmt.Errorf("wire: decode: %d-byte frame exceeds bound", n)
	}
	if uint64(cap(d.buf)) < n {
		d.buf = make([]byte, n)
	}
	buf := d.buf[:n]
	if _, err := io.ReadFull(d.r, buf); err != nil {
		return nil, fmt.Errorf("wire: decode: truncated frame: %w", err)
	}
	return buf, nil
}

func versionError(ver byte) error {
	return fmt.Errorf("%w: got frame header 0x%02x, want 0x%02x", ErrVersion, ver, wireVersion)
}

// Message field-presence mask bits.
const (
	maskPair = 1 << iota
	maskPW
	maskW
	maskTokens
	maskSub
	maskWSame
	maskHave
	maskFlags
)

// knownFlags is every flag bit this generation defines.
const knownFlags = types.FlagNoValues | types.FlagElidedPW | types.FlagElidedW | types.FlagSplice

// appendMessage appends m's encoding to b.
func appendMessage(b []byte, m *types.Message, depth int) []byte {
	b = binary.AppendVarint(b, int64(m.Kind))
	b = binary.AppendVarint(b, int64(m.Seq))
	var mask byte
	if m.Pair != (types.Pair{}) {
		mask |= maskPair
	}
	if m.PW != (types.Pair{}) {
		mask |= maskPW
	}
	if m.W != (types.Pair{}) {
		if mask&maskPW != 0 && m.W == m.PW {
			mask |= maskWSame
		} else {
			mask |= maskW
		}
	}
	if m.Token != 0 || m.TokenPW != 0 {
		mask |= maskTokens
	}
	if len(m.Sub) > 0 {
		mask |= maskSub
	}
	if len(m.Have) > 0 {
		mask |= maskHave
	}
	if m.Flags != 0 {
		mask |= maskFlags
	}
	b = append(b, mask)
	if mask&maskPair != 0 {
		b = appendWirePair(b, m.Pair)
	}
	if mask&maskPW != 0 {
		b = appendWirePair(b, m.PW)
	}
	if mask&maskW != 0 {
		b = appendWirePair(b, m.W)
	}
	if mask&maskTokens != 0 {
		b = binary.AppendUvarint(b, uint64(m.Token))
		b = binary.AppendUvarint(b, uint64(m.TokenPW))
	}
	if mask&maskSub != 0 {
		b = binary.AppendUvarint(b, uint64(len(m.Sub)))
		for i := range m.Sub {
			b = binary.AppendVarint(b, int64(m.Sub[i].Reg.Class))
			b = binary.AppendVarint(b, int64(m.Sub[i].Reg.Idx))
			b = appendMessage(b, &m.Sub[i].Msg, depth+1)
		}
	}
	if mask&maskHave != 0 {
		b = binary.AppendUvarint(b, uint64(len(m.Have)))
		for i := range m.Have {
			b = binary.AppendVarint(b, m.Have[i].TS.Seq)
			b = binary.AppendVarint(b, m.Have[i].TS.WID)
			b = binary.LittleEndian.AppendUint64(b, m.Have[i].Digest)
		}
	}
	if mask&maskFlags != 0 {
		b = append(b, byte(m.Flags))
	}
	return b
}

func appendWirePair(b []byte, p types.Pair) []byte {
	b = binary.AppendVarint(b, p.TS.Seq)
	b = binary.AppendVarint(b, p.TS.WID)
	b = binary.AppendUvarint(b, uint64(len(p.Val)))
	return append(b, p.Val...)
}

// decodeMessage decodes one message off the front of b, returning the rest.
func decodeMessage(b []byte, depth int) (types.Message, []byte, error) {
	if depth > maxSubDepth {
		return types.Message{}, nil, fmt.Errorf("message nesting exceeds depth %d", maxSubDepth)
	}
	var m types.Message
	kind, b, err := cutVarint(b)
	if err != nil {
		return m, nil, err
	}
	seq, b, err := cutVarint(b)
	if err != nil {
		return m, nil, err
	}
	m.Kind = types.MsgKind(kind)
	m.Seq = int(seq)
	if len(b) == 0 {
		return m, nil, fmt.Errorf("truncated message mask")
	}
	mask := b[0]
	b = b[1:]
	if mask&maskPair != 0 {
		if m.Pair, b, err = cutWirePair(b); err != nil {
			return m, nil, err
		}
	}
	if mask&maskPW != 0 {
		if m.PW, b, err = cutWirePair(b); err != nil {
			return m, nil, err
		}
	}
	if mask&maskW != 0 {
		if m.W, b, err = cutWirePair(b); err != nil {
			return m, nil, err
		}
		if mask&maskPW != 0 && m.W == m.PW {
			return m, nil, fmt.Errorf("non-canonical message: W equals PW but is encoded twice")
		}
	}
	if mask&maskWSame != 0 {
		if mask&maskW != 0 || mask&maskPW == 0 {
			return m, nil, fmt.Errorf("non-canonical message: W==PW bit without PW, or with W")
		}
		m.W = m.PW // one string shared by both slots
	}
	if mask&maskTokens != 0 {
		var tok, tokPW uint64
		if tok, b, err = cutUvarint(b); err != nil {
			return m, nil, err
		}
		if tokPW, b, err = cutUvarint(b); err != nil {
			return m, nil, err
		}
		m.Token, m.TokenPW = types.Token(tok), types.Token(tokPW)
	}
	if mask&maskSub != 0 {
		var n uint64
		if n, b, err = cutUvarint(b); err != nil {
			return m, nil, err
		}
		// Each sub-entry costs ≥ 5 bytes (two reg varints + kind + seq +
		// mask); a cheap bound against forged counts.
		if n > uint64(len(b)/5)+1 {
			return m, nil, fmt.Errorf("sub-message count %d exceeds payload", n)
		}
		if n == 0 {
			// Canonical form: an absent bundle is a nil slice (the encoder
			// never sets the mask bit for an empty one).
			return m, nil, fmt.Errorf("empty sub-message bundle")
		}
		// Grow the bundle as entries actually parse (capped initial
		// capacity): a sub-entry is ~21x larger decoded than its minimal
		// wire form, so pre-allocating from the declared count would let a
		// single maximal frame demand ~21x its own size in one allocation
		// before the first entry fails to parse.
		m.Sub = make([]types.SubMsg, 0, min(n, 64))
		for i := uint64(0); i < n; i++ {
			var sub types.SubMsg
			var class, idx int64
			if class, b, err = cutVarint(b); err != nil {
				return m, nil, err
			}
			if idx, b, err = cutVarint(b); err != nil {
				return m, nil, err
			}
			sub.Reg = types.RegID{Class: types.RegClass(class), Idx: int(idx)}
			if sub.Msg, b, err = decodeMessage(b, depth+1); err != nil {
				return m, nil, err
			}
			m.Sub = append(m.Sub, sub)
		}
	}
	if mask&maskHave != 0 {
		var n uint64
		if n, b, err = cutUvarint(b); err != nil {
			return m, nil, err
		}
		// Each entry costs 10 bytes (two varints + the fixed digest).
		if n == 0 || n > uint64(len(b)/10) {
			return m, nil, fmt.Errorf("have-list count %d empty or exceeds payload", n)
		}
		m.Have = make([]types.Have, n)
		for i := range m.Have {
			if m.Have[i].TS.Seq, b, err = cutVarint(b); err != nil {
				return m, nil, err
			}
			if m.Have[i].TS.WID, b, err = cutVarint(b); err != nil {
				return m, nil, err
			}
			if len(b) < 8 {
				return m, nil, fmt.Errorf("truncated have-list digest")
			}
			m.Have[i].Digest = binary.LittleEndian.Uint64(b)
			b = b[8:]
		}
	}
	if mask&maskFlags != 0 {
		if len(b) == 0 || b[0] == 0 || types.MsgFlags(b[0])&^knownFlags != 0 {
			return m, nil, fmt.Errorf("missing, zero or unknown message flags")
		}
		m.Flags = types.MsgFlags(b[0])
		b = b[1:]
	}
	return m, b, nil
}

// cutWirePair cuts one pair off the front of b. The value is copied out of
// the decoder's reused buffer — pairs outlive the frame (objects retain
// them in register state).
func cutWirePair(b []byte) (types.Pair, []byte, error) {
	seq, b, err := cutVarint(b)
	if err != nil {
		return types.Pair{}, nil, err
	}
	wid, b, err := cutVarint(b)
	if err != nil {
		return types.Pair{}, nil, err
	}
	n, b, err := cutUvarint(b)
	if err != nil {
		return types.Pair{}, nil, err
	}
	if n > uint64(len(b)) {
		return types.Pair{}, nil, fmt.Errorf("truncated pair value (%d declared, %d left)", n, len(b))
	}
	return types.Pair{TS: types.TS{Seq: seq, WID: wid}, Val: types.Value(b[:n])}, b[n:], nil
}

func cutVarint(b []byte) (int64, []byte, error) {
	v, w := binary.Varint(b)
	if w <= 0 {
		return 0, nil, fmt.Errorf("truncated varint")
	}
	return v, b[w:], nil
}

func cutUvarint(b []byte) (uint64, []byte, error) {
	v, w := binary.Uvarint(b)
	if w <= 0 {
		return 0, nil, fmt.Errorf("truncated uvarint")
	}
	return v, b[w:], nil
}
