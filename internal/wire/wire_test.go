package wire

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"testing/quick"

	"robustatomic/internal/types"
)

func TestStreamOfMessages(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for i := 1; i <= 5; i++ {
		if err := enc.EncodeRequest(Request{From: types.Writer, Msg: types.Message{Kind: types.MsgWrite, Seq: i}}); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewDecoder(&buf)
	for i := 1; i <= 5; i++ {
		req, err := dec.DecodeRequest()
		if err != nil {
			t.Fatal(err)
		}
		if req.Msg.Seq != i {
			t.Fatalf("seq %d, want %d", req.Msg.Seq, i)
		}
	}
	if _, err := dec.DecodeRequest(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	dec := NewDecoder(bytes.NewReader([]byte("this is not a wire frame")))
	if _, err := dec.DecodeRequest(); err == nil || err == io.EOF {
		t.Fatal("garbage accepted")
	}
}

func TestPairWireProperty(t *testing.T) {
	f := func(seqNo, wid int64, val string, tok uint64, seq int) bool {
		var buf bytes.Buffer
		in := Response{Server: 1, Msg: types.Message{
			Kind: types.MsgState, W: types.Pair{TS: types.TS{Seq: seqNo, WID: wid}, Val: types.Value(val)},
			Token: types.Token(tok), Seq: seq,
		}}
		if err := NewEncoder(&buf).EncodeResponse(in); err != nil {
			return false
		}
		out, err := NewDecoder(&buf).DecodeResponse()
		if err != nil {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
