package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"robustatomic/internal/types"
)

func sampleMessages() []types.Message {
	return []types.Message{
		{Kind: types.MsgRead1},
		{Kind: types.MsgAck, Seq: 42},
		{Kind: types.MsgPreWrite, Seq: 7, Pair: types.Pair{TS: types.TS{Seq: 3, WID: 2}, Val: "hello"}},
		{Kind: types.MsgWrite, Pair: types.Pair{TS: types.At(1), Val: ""}, Token: 0xdeadbeef, TokenPW: 1},
		{Kind: types.MsgState,
			PW: types.Pair{TS: types.TS{Seq: 9, WID: 1}, Val: "pw-val"},
			W:  types.Pair{TS: types.TS{Seq: 8, WID: 3}, Val: types.Value(strings.Repeat("x", 300))}},
		{Kind: types.MsgAck, PW: types.Pair{TS: types.TS{Seq: 5, WID: 4}}, W: types.Pair{TS: types.At(5)}},
		{Kind: types.MsgMux, Seq: 3, Sub: []types.SubMsg{
			{Reg: types.WriterReg, Msg: types.Message{Kind: types.MsgRead1, Seq: 3}},
			{Reg: types.ReaderReg(2), Msg: types.Message{
				Kind: types.MsgWriteBack,
				Pair: types.Pair{TS: types.At(11), Val: "wb"},
			}},
		}},
		// Negative and extreme integers must survive the signed varints.
		{Kind: types.MsgState, PW: types.Pair{TS: types.TS{Seq: 1<<62 + 3, WID: -5}, Val: "v"}},
		// Generation 5 — value-eliding reads. A conditional READ with its
		// have-list, and the timestamps-only form.
		{Kind: types.MsgRead1, Seq: 4, Have: []types.Have{
			{TS: types.TS{Seq: 12, WID: 3}, Digest: 0xfeedfacecafebeef},
			{TS: types.At(11), Digest: 1},
		}},
		{Kind: types.MsgRead1, Flags: types.FlagNoValues},
		// A settled register's full reply: W == PW travels as one bit.
		{Kind: types.MsgState, Token: 5, TokenPW: 5,
			PW: types.Pair{TS: types.TS{Seq: 12, WID: 3}, Val: types.Value(strings.Repeat("t", 200))},
			W:  types.Pair{TS: types.TS{Seq: 12, WID: 3}, Val: types.Value(strings.Repeat("t", 200))}},
		// The same reply to a reader that holds the pair: both slots elided
		// (and still equal); and a half-elided mid-write state.
		{Kind: types.MsgState, Flags: types.FlagElidedPW | types.FlagElidedW,
			PW: types.Pair{TS: types.TS{Seq: 12, WID: 3}}, W: types.Pair{TS: types.TS{Seq: 12, WID: 3}}},
		{Kind: types.MsgState, Flags: types.FlagElidedW,
			PW: types.Pair{TS: types.At(13), Val: "in-flight"}, W: types.Pair{TS: types.TS{Seq: 12, WID: 3}}},
		// Generation 6 — value-eliding writes. A WRITE by reference, a
		// PREWRITE by splice (its edit where the value was), an object's
		// refusal, and the write-back's WRITE, conditioned inside its bundle.
		{Kind: types.MsgWrite, Seq: 9, Token: 3, Pair: types.Pair{TS: types.TS{Seq: 13, WID: 3}},
			Have: []types.Have{{TS: types.TS{Seq: 13, WID: 3}, Digest: 0x0123456789abcdef}}},
		{Kind: types.MsgPreWrite, Flags: types.FlagSplice,
			Pair: types.Pair{TS: types.TS{Seq: 13, WID: 3}, Val: "\xc8\x01\x05\x02\x03new"},
			Have: []types.Have{{TS: types.TS{Seq: 12, WID: 3}, Digest: 42}}},
		{Kind: types.MsgNeedValue, PW: types.Pair{TS: types.TS{Seq: 11, WID: 1}}, W: types.Pair{TS: types.At(10)}},
		{Kind: types.MsgMux, Sub: []types.SubMsg{{Reg: types.ReaderReg(2), Msg: types.Message{
			Kind: types.MsgWrite, Pair: types.Pair{TS: types.At(5)}, Have: []types.Have{{TS: types.At(5), Digest: 7}}}}}},
		// The multiplexed read round's bundle, hinted per register.
		{Kind: types.MsgMux, Sub: []types.SubMsg{
			{Reg: types.WriterReg, Msg: types.Message{Kind: types.MsgRead1, Have: []types.Have{{TS: types.At(7), Digest: 77}}}},
			{Reg: types.ReaderReg(1), Msg: types.Message{Kind: types.MsgRead1}},
		}},
	}
}

func TestRequestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	var want []Request
	for i, m := range sampleMessages() {
		req := Request{ID: uint64(i)*977 + 1, From: types.Reader(i + 1), Reg: i * 3, Msg: m}
		if i%2 == 0 {
			req.From = types.WriterID(i)
			// The gen-4 epoch stamp must survive, including large epochs;
			// odd-indexed requests keep the epoch-0 wildcard.
			req.Epoch = uint64(i)<<40 + 7
		}
		want = append(want, req)
		if err := enc.EncodeRequest(req); err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
	}
	dec := NewDecoder(&buf)
	for i, w := range want {
		got, err := dec.DecodeRequest()
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("request %d round trip:\n got %#v\nwant %#v", i, got, w)
		}
	}
	if _, err := dec.DecodeRequest(); err != io.EOF {
		t.Errorf("after stream end: %v, want io.EOF", err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	var want []Response
	for i, m := range sampleMessages() {
		rsp := Response{ID: uint64(i) << 33, Server: i + 1, Msg: m}
		want = append(want, rsp)
		if err := enc.EncodeResponse(rsp); err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
	}
	dec := NewDecoder(&buf)
	for i, w := range want {
		got, err := dec.DecodeResponse()
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("response %d round trip:\n got %#v\nwant %#v", i, got, w)
		}
	}
}

// sampleBatches builds batch envelopes of varied widths from the sample
// messages: sub-requests for distinct register instances sharing one frame.
func sampleBatches() [][]SubReq {
	msgs := sampleMessages()
	var batches [][]SubReq
	for width := 1; width <= len(msgs); width += 3 {
		var subs []SubReq
		for i := 0; i < width; i++ {
			subs = append(subs, SubReq{Reg: i + 1, Msg: msgs[i]})
		}
		batches = append(batches, subs)
	}
	return batches
}

func TestBatchRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	var wantReq []Request
	var wantRsp []Response
	for i, subs := range sampleBatches() {
		req := Request{ID: uint64(i + 1), From: types.WriterID(i + 1), Subs: subs}
		rsp := Response{ID: uint64(i + 1), Server: i + 1, Subs: subs}
		wantReq = append(wantReq, req)
		wantRsp = append(wantRsp, rsp)
		if err := enc.EncodeRequest(req); err != nil {
			t.Fatalf("encode request %d: %v", i, err)
		}
		if err := enc.EncodeResponse(rsp); err != nil {
			t.Fatalf("encode response %d: %v", i, err)
		}
	}
	dec := NewDecoder(&buf)
	for i := range wantReq {
		gotReq, err := dec.DecodeRequest()
		if err != nil {
			t.Fatalf("decode request %d: %v", i, err)
		}
		if !reflect.DeepEqual(gotReq, wantReq[i]) {
			t.Errorf("batch request %d round trip:\n got %#v\nwant %#v", i, gotReq, wantReq[i])
		}
		gotRsp, err := dec.DecodeResponse()
		if err != nil {
			t.Fatalf("decode response %d: %v", i, err)
		}
		if !reflect.DeepEqual(gotRsp, wantRsp[i]) {
			t.Errorf("batch response %d round trip:\n got %#v\nwant %#v", i, gotRsp, wantRsp[i])
		}
	}
}

func TestDecodedValuesDoNotAliasDecoderBuffer(t *testing.T) {
	// The decoder reuses its payload buffer across frames; decoded pair
	// values must be copies, or the next frame would corrupt retained
	// register state.
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	first := Request{From: types.Writer, Msg: types.Message{
		Kind: types.MsgWrite, Pair: types.Pair{TS: types.At(1), Val: "first-value"}}}
	second := Request{From: types.Writer, Msg: types.Message{
		Kind: types.MsgWrite, Pair: types.Pair{TS: types.At(2), Val: "SECOND-VALUE-XXXX"}}}
	if err := enc.EncodeRequest(first); err != nil {
		t.Fatal(err)
	}
	if err := enc.EncodeRequest(second); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(&buf)
	got1, err := dec.DecodeRequest()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.DecodeRequest(); err != nil {
		t.Fatal(err)
	}
	if got1.Msg.Pair.Val != "first-value" {
		t.Errorf("first value corrupted by later frame: %q", got1.Msg.Pair.Val)
	}
}

func TestVersionMismatchRejected(t *testing.T) {
	// 0x3f is how a gob stream opens (the length of its first type
	// descriptor): what generation-1 peers and every WAL written before the
	// log moved to this codec begin with. Any foreign header byte must
	// surface the lockstep-upgrade error on the first message.
	foreign := []byte{0x3f, 0xff, 0x81, 0x03, 0x01, 0x01}
	if _, err := NewDecoder(bytes.NewReader(foreign)).DecodeRequest(); !errors.Is(err, ErrVersion) {
		t.Errorf("stream with a foreign header: %v, want ErrVersion", err)
	}
	if _, err := ParseRequest(foreign); !errors.Is(err, ErrVersion) {
		t.Errorf("stored frame with a foreign header: %v, want ErrVersion", err)
	}
}

// TestPreviousGenerationRejected: generation 6 used the same frame layout,
// but its readers consult a write-back register per reader that this
// generation's readers never write — an old reader's write-back would go
// unseen by a new one, an inversion — so a mixed deployment must fail on the
// first frame with the lockstep-upgrade error.
func TestPreviousGenerationRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := NewEncoder(&buf).EncodeRequest(Request{From: types.Writer, Msg: types.Message{Kind: types.MsgRead1}}); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	if frame[0] != 0x07 {
		t.Fatalf("live generation header = 0x%02x, want 0x07", frame[0])
	}
	frame[0] = 0x06
	if _, err := NewDecoder(bytes.NewReader(frame)).DecodeRequest(); !errors.Is(err, ErrVersion) {
		t.Errorf("generation-6 request: %v, want ErrVersion", err)
	}
	if _, err := NewDecoder(bytes.NewReader(frame)).DecodeResponse(); !errors.Is(err, ErrVersion) {
		t.Errorf("generation-6 response: %v, want ErrVersion", err)
	}
}

// TestSettledReplyShipsOneCopy pins what the W==PW bit is for: a register
// whose two slots hold the same pair costs one copy of the value on the
// wire, and the decoded slots share one string.
func TestSettledReplyShipsOneCopy(t *testing.T) {
	val := types.Value(strings.Repeat("v", 4096))
	p := types.Pair{TS: types.TS{Seq: 9, WID: 2}, Val: val}
	var buf bytes.Buffer
	if err := NewEncoder(&buf).EncodeResponse(Response{ID: 1, Server: 1, Msg: types.Message{Kind: types.MsgState, PW: p, W: p}}); err != nil {
		t.Fatal(err)
	}
	if n := buf.Len(); n > len(val)+32 {
		t.Errorf("settled reply is %d bytes for a %d-byte value: W was shipped again", n, len(val))
	}
	rsp, err := NewDecoder(&buf).DecodeResponse()
	if err != nil {
		t.Fatal(err)
	}
	if rsp.Msg.PW != p || rsp.Msg.W != p {
		t.Fatalf("round trip lost a slot: %+v", rsp.Msg)
	}
	if unsafe.StringData(string(rsp.Msg.PW.Val)) != unsafe.StringData(string(rsp.Msg.W.Val)) {
		t.Error("decoded W and PW do not share one string")
	}
}

func TestEncodeRefusesOversizeFrame(t *testing.T) {
	defer func(old int) { MaxFrame = old }(MaxFrame)
	MaxFrame = 1 << 10
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	big := Response{ID: 1, Server: 1, Msg: types.Message{Kind: types.MsgState, W: types.Pair{TS: types.At(1), Val: types.Value(strings.Repeat("x", 2<<10))}}}
	if err := enc.EncodeResponse(big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize response: %v, want ErrFrameTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("refused frame wrote %d bytes", buf.Len())
	}
	// The encoder (and the stream) stay usable.
	if err := enc.EncodeResponse(Response{ID: 2, Server: 1, Msg: types.Message{Kind: types.MsgAck}}); err != nil {
		t.Fatal(err)
	}
	if rsp, err := NewDecoder(&buf).DecodeResponse(); err != nil || rsp.ID != 2 {
		t.Errorf("frame after a refused one: %+v, %v", rsp, err)
	}
}

// TestAppendParseRequest covers the stored-frame entry points: AppendRequest
// extends dst with exactly the bytes an Encoder writes, ParseRequest takes
// exactly one such frame back, and an oversize envelope leaves dst as it was.
func TestAppendParseRequest(t *testing.T) {
	for i, m := range sampleMessages() {
		req := Request{ID: uint64(i), From: types.Reader(i + 1), Epoch: 3, Reg: i, Msg: m}
		var stream bytes.Buffer
		if err := NewEncoder(&stream).EncodeRequest(req); err != nil {
			t.Fatal(err)
		}
		b, err := AppendRequest([]byte("prefix"), req)
		if err != nil || !bytes.Equal(b[:6], []byte("prefix")) || !bytes.Equal(b[6:], stream.Bytes()) {
			t.Fatalf("message %d: AppendRequest = %x, %v; the Encoder wrote %x", i, b, err, stream.Bytes())
		}
		got, err := ParseRequest(b[6:])
		if err != nil || !reflect.DeepEqual(got, req) {
			t.Errorf("message %d: ParseRequest = %+v, %v; want %+v", i, got, err, req)
		}
		if _, err := ParseRequest(b[6 : len(b)-1]); err == nil {
			t.Errorf("message %d: a frame cut short parsed", i)
		}
		if _, err := ParseRequest(append(b[6:], 0)); err == nil {
			t.Errorf("message %d: a frame with a trailing byte parsed", i)
		}
	}
	if _, err := ParseRequest(nil); err == nil {
		t.Error("an empty frame parsed")
	}
	defer func(old int) { MaxFrame = old }(MaxFrame)
	MaxFrame = 1 << 10
	big := Request{Msg: types.Message{Kind: types.MsgWrite, Pair: types.Pair{TS: types.At(1), Val: types.Value(strings.Repeat("x", 2<<10))}}}
	if b, err := AppendRequest([]byte("prefix"), big); !errors.Is(err, ErrFrameTooLarge) || string(b) != "prefix" {
		t.Errorf("oversize request: dst = %q, err = %v; want dst unchanged and ErrFrameTooLarge", b, err)
	}
}

func TestDecodeRejectsMalformedFrames(t *testing.T) {
	// Payload prefix: [uvarint ID] [varint From.Kind] [varint From.Idx]
	// [tag]; the bytes 0, 2, 0 below are ID 0, kind 1, idx 0.
	cases := map[string][]byte{
		"empty payload":         {wireVersion, 0},
		"truncated payload":     {wireVersion, 10, 1, 2},
		"oversized frame":       {wireVersion, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"bad version":           {0x7f, 1, 0},
		"missing frame tag":     append([]byte{wireVersion, 3}, 0, 2, 0),
		"unknown frame tag":     append([]byte{wireVersion, 4}, 0, 2, 0, 0x7f),
		"forged value length":   append([]byte{wireVersion, 10}, 0, 2, 0, tagSingle, 2, 2, 0, 1 /*mask pair*/, 2, 2), // pair claims bytes it doesn't have
		"forged sub count":      append([]byte{wireVersion, 10}, 0, 2, 0, tagSingle, 2, 22, 0, 16 /*mask sub*/, 0xff, 0x7f),
		"trailing bytes":        append([]byte{wireVersion, 10}, 0, 2, 0, tagSingle, 2, 2, 0, 0, 9, 9),
		"missing mask":          append([]byte{wireVersion, 7}, 0, 2, 0, tagSingle, 2, 2, 0),
		"zero batch count":      append([]byte{wireVersion, 5}, 0, 2, 0, tagBatch, 0),
		"forged batch count":    append([]byte{wireVersion, 7}, 0, 2, 0, tagBatch, 0xff, 0xff, 0x7f),
		"truncated batch entry": append([]byte{wireVersion, 7}, 0, 2, 0, tagBatch, 1, 2, 2),
		"truncated frame start": {wireVersion},
	}
	for name, raw := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := NewDecoder(bytes.NewReader(raw)).DecodeRequest(); err == nil {
				t.Errorf("malformed frame %q accepted", name)
			}
		})
	}
}

// TestDecodeRejectsNonCanonical covers the forms the encoder never emits
// (generation 5's mask bits; generation 6 added none). Each case is one
// message body (kind 6 = STATE, 3 = READ; mask 2 = PW, 4 = W, 16 = Sub, 32 = W==PW, 64 = have-list, 128 = flags; a
// pair is seq, wid, len, bytes) framed as a single-register request; the
// control cases prove the framing itself decodes.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	frame := func(body ...byte) []byte {
		payload := append([]byte{0, 2, 0, 0, tagSingle, 0}, body...) // id, from kind, idx, epoch, tag, reg
		return append([]byte{wireVersion, byte(len(payload))}, payload...)
	}
	accepted := map[string][]byte{
		"W==PW":     frame(12, 0, 2|32, 2, 0, 1, 'v'),
		"have-list": frame(6, 0, 64, 1, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8),
		"flags":     frame(6, 0, 128, byte(types.FlagNoValues)),
	}
	for name, raw := range accepted {
		if _, err := NewDecoder(bytes.NewReader(raw)).DecodeRequest(); err != nil {
			t.Errorf("control frame %q rejected: %v", name, err)
		}
	}
	rejected := map[string][]byte{
		"W==PW bit without PW":  frame(12, 0, 32),
		"W==PW bit with W":      frame(12, 0, 2|4|32, 2, 0, 0, 4, 0, 0),
		"W equal to PW twice":   frame(12, 0, 2|4, 2, 0, 1, 'v', 2, 0, 1, 'v'),
		"empty have-list":       frame(6, 0, 64, 0),
		"forged have count":     frame(6, 0, 64, 0xff, 0x7f),
		"truncated have digest": frame(6, 0, 64, 1, 0x80, 1, 0x80, 1, 1, 2, 3, 4, 5, 6, 7),
		"zero flags byte":       frame(6, 0, 128, 0),
		"unknown flag bit":      frame(6, 0, 128, 16),
		"missing flags byte":    frame(6, 0, 128),
		"empty sub bundle":      frame(22, 0, 16, 0),
	}
	for name, raw := range rejected {
		if _, err := NewDecoder(bytes.NewReader(raw)).DecodeRequest(); err == nil {
			t.Errorf("non-canonical frame %q accepted", name)
		}
	}
}

func TestDeepNestingRejected(t *testing.T) {
	// Hand-build a frame whose message nests Sub beyond maxSubDepth: the
	// decoder must reject it rather than recurse unboundedly.
	msg := []byte{2, 0, 0} // kind, seq, empty mask
	for i := 0; i < maxSubDepth+2; i++ {
		inner := msg
		msg = append([]byte{22, 0, 16 /*mask sub*/, 1 /*count*/, 2, 0}, inner...)
	}
	payload := append([]byte{0, 2, 0, tagSingle, 0}, msg...) // id, from kind, idx, tag, reg
	frame := append([]byte{wireVersion, byte(len(payload))}, payload...)
	if _, err := NewDecoder(bytes.NewReader(frame)).DecodeRequest(); err == nil {
		t.Fatal("over-deep nesting accepted")
	}
}

// FuzzWireRequest: the binary decoder must never panic, and every frame it
// accepts must re-encode and re-decode to the same request.
func FuzzWireRequest(f *testing.F) {
	var seedBuf bytes.Buffer
	enc := NewEncoder(&seedBuf)
	for i, m := range sampleMessages() {
		seedBuf.Reset()
		if err := enc.EncodeRequest(Request{From: types.Reader(i + 1), Reg: i, Msg: m}); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), seedBuf.Bytes()...))
	}
	f.Add([]byte{wireVersion, 0x05, 1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := NewDecoder(bytes.NewReader(data)).DecodeRequest()
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := NewEncoder(&buf).EncodeRequest(req); err != nil {
			t.Fatalf("accepted request does not re-encode: %v", err)
		}
		again, err := NewDecoder(&buf).DecodeRequest()
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("round trip diverged:\n got %#v\nwant %#v", again, req)
		}
	})
}

// FuzzWireBatch hammers the batch frame path: a stream of frames (so seeds
// can carry duplicate request IDs across frames), malformed sub-bundle
// counts and truncated tags must yield errors, never panics, and every
// accepted envelope must round-trip.
func FuzzWireBatch(f *testing.F) {
	var seedBuf bytes.Buffer
	enc := NewEncoder(&seedBuf)
	for i, subs := range sampleBatches() {
		seedBuf.Reset()
		if err := enc.EncodeRequest(Request{ID: uint64(i + 9), From: types.WriterID(1), Subs: subs}); err != nil {
			f.Fatal(err)
		}
		// Two copies of the frame in one stream: duplicate request IDs are a
		// demux-layer concern, the codec must decode both identically.
		f.Add(append(append([]byte(nil), seedBuf.Bytes()...), seedBuf.Bytes()...))
		seedBuf.Reset()
		if err := enc.EncodeResponse(Response{ID: uint64(i + 9), Server: 2, Subs: subs}); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), seedBuf.Bytes()...))
	}
	// Truncated tag, forged batch count, zero count.
	f.Add([]byte{wireVersion, 3, 0, 2, 0})
	f.Add([]byte{wireVersion, 7, 0, 2, 0, tagBatch, 0xff, 0xff, 0x7f})
	f.Add([]byte{wireVersion, 5, 0, 2, 0, tagBatch, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data))
		for {
			req, err := dec.DecodeRequest()
			if err != nil {
				return
			}
			var buf bytes.Buffer
			if err := NewEncoder(&buf).EncodeRequest(req); err != nil {
				t.Fatalf("accepted request does not re-encode: %v", err)
			}
			again, err := NewDecoder(&buf).DecodeRequest()
			if err != nil {
				t.Fatalf("re-encoded request does not decode: %v", err)
			}
			if !reflect.DeepEqual(req, again) {
				t.Fatalf("round trip diverged:\n got %#v\nwant %#v", again, req)
			}
		}
	})
}

// BenchmarkWireCodec measures the codec on the two message shapes that
// dominate the hot path: the small state reply of a read round and a
// table-carrying write. (EXPERIMENTS.md E12 keeps the recorded figures of the
// gob streams it replaced.)
func BenchmarkWireCodec(b *testing.B) {
	small := Response{Server: 3, Msg: types.Message{
		Kind: types.MsgState, Seq: 12,
		PW: types.Pair{TS: types.TS{Seq: 41, WID: 2}, Val: "pw"},
		W:  types.Pair{TS: types.TS{Seq: 40, WID: 2}, Val: "w"},
	}}
	large := Request{From: types.WriterID(2), Reg: 5, Msg: types.Message{
		Kind: types.MsgPreWrite, Seq: 9,
		Pair: types.Pair{TS: types.TS{Seq: 100, WID: 2}, Val: types.Value(strings.Repeat("k", 4096))},
	}}
	b.Run("binary/state-reply", func(b *testing.B) {
		benchBinary(b, func(e *Encoder) error { return e.EncodeResponse(small) },
			func(d *Decoder) error { _, err := d.DecodeResponse(); return err })
	})
	b.Run("binary/table-write", func(b *testing.B) {
		benchBinary(b, func(e *Encoder) error { return e.EncodeRequest(large) },
			func(d *Decoder) error { _, err := d.DecodeRequest(); return err })
	})
}

// loopBuffer is an in-memory pipe: everything written is available to read.
type loopBuffer struct{ bytes.Buffer }

func benchBinary(b *testing.B, enc func(*Encoder) error, dec func(*Decoder) error) {
	var lb loopBuffer
	e := NewEncoder(&lb)
	d := NewDecoder(&lb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc(e); err != nil {
			b.Fatal(err)
		}
		if err := dec(d); err != nil {
			b.Fatal(err)
		}
	}
}
