package tcpnet

import (
	"net"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

// pipeline writes reqs to conn as one Write, numbering them 1, 2, …, so the
// object finds them all in its read buffer at once.
func pipeline(t *testing.T, conn net.Conn, reqs ...types.Message) {
	t.Helper()
	var frames []byte
	for i, m := range reqs {
		var err error
		req := wire.Request{ID: uint64(i + 1), From: types.Writer, Msg: m}
		if frames, err = wire.AppendRequest(frames, req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
}

// awaitReplies decodes n replies and checks they answer requests 1..n in order.
func awaitReplies(t *testing.T, dec *wire.Decoder, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		rsp, err := dec.DecodeResponse()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if rsp.ID != uint64(i) {
			t.Fatalf("reply %d answers request %d", i, rsp.ID)
		}
	}
}

// countReplyWrites dials s, pipelines reqs and returns how many writes the
// object spent on their replies.
func countReplyWrites(t *testing.T, s *Server, reqs ...types.Message) int64 {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	before := mSrvReplyWrites.Value()
	pipeline(t, conn, reqs...)
	awaitReplies(t, wire.NewDecoder(conn), len(reqs))
	return mSrvReplyWrites.Value() - before
}

var (
	readReq     = types.Message{Kind: types.MsgRead1}
	prewriteReq = types.Message{Kind: types.MsgPreWrite, Pair: types.Pair{TS: types.At(1), Val: "v1"}}
)

// TestPipelinedRepliesShareOneWrite: requests that arrive together are
// answered together — eight pipelined READs cost the object one write.
func TestPipelinedRepliesShareOneWrite(t *testing.T) {
	s, err := NewServer(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reqs := make([]types.Message, 8)
	for i := range reqs {
		reqs[i] = readReq
	}
	if n := countReplyWrites(t, s, reqs...); n != 1 {
		t.Fatalf("8 pipelined READs were answered with %d writes, want 1", n)
	}
}

// TestDurableServerFlushesBeforeAWrite: a logged request can wait (on
// compaction, the log's order, an fsync), so the replies owed before it leave
// before it is served — [READ, PREWRITE, READ] costs a durable object two
// writes, and a memory-only one a single write.
func TestDurableServerFlushesBeforeAWrite(t *testing.T) {
	for _, c := range []struct {
		opts ServerOptions
		want int64
	}{
		{ServerOptions{}, 1},
		{ServerOptions{DataDir: filepath.Join(t.TempDir(), "s1")}, 2},
	} {
		s, err := NewServerWith(1, "127.0.0.1:0", c.opts)
		if err != nil {
			t.Fatal(err)
		}
		n := countReplyWrites(t, s, readReq, prewriteReq, readReq)
		s.Close()
		if n != c.want {
			t.Errorf("data dir %q: [READ, PREWRITE, READ] cost %d reply writes, want %d", c.opts.DataDir, n, c.want)
		}
	}
}

// TestServerConnGoroutinesEnd: a connection leaves nothing running behind it
// once it is closed — a long-lived daemon must not keep a goroutine for every
// connection it ever accepted.
func TestServerConnGoroutinesEnd(t *testing.T) {
	s, err := NewServer(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conns, start := mSrvConns.Value(), runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		pipeline(t, conn, readReq)
		awaitReplies(t, wire.NewDecoder(conn), 1)
		conn.Close()
	}
	for deadline := time.Now().Add(5 * time.Second); mSrvConns.Value() != conns; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still served after their clients hung up", mSrvConns.Value()-conns)
		}
	}
	// The connection counter drops before serveConn's last deferred calls.
	const slack = 5
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > start+slack; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before 50 connections, %d after they all closed", start, runtime.NumGoroutine())
		}
	}
}
