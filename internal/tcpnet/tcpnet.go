// Package tcpnet runs the storage protocol over real TCP sockets: a Server
// exposes one storage object on a listener, and a Client implements
// proto.Rounder against a set of object addresses, so every register
// implementation in the repository runs unchanged across machines
// (cmd/storaged and cmd/storctl are the deployable binaries).
package tcpnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"robustatomic/internal/obs"
	"robustatomic/internal/persist"
	"robustatomic/internal/server"
	"robustatomic/internal/wire"
)

// Daemon-side observability: request mix, batched sub-round fan-in and bytes
// at the socket boundary (the object's own fault-path counters live with
// server.Host). Per-server register counts are callback gauges keyed by
// listen address (see NewServerWith).
var (
	mSrvConns     = obs.Default.Gauge("tcpnet_server_conns")
	mSrvSingle    = obs.Default.Counter("tcpnet_server_requests_total")
	mSrvBatch     = obs.Default.Counter("tcpnet_server_batch_requests_total")
	mSrvBatchSubs = obs.Default.Hist("tcpnet_server_batch_subs")
	mSrvRxBytes   = obs.Default.Counter("tcpnet_server_rx_bytes_total")
	mSrvTxBytes   = obs.Default.Counter("tcpnet_server_tx_bytes_total")
	mSrvOversize  = obs.Default.Counter("tcpnet_server_reply_oversize_total")
	// Requests over reply writes is the replies one write(2) carries.
	mSrvReplyWrites = obs.Default.Counter("tcpnet_server_reply_writes_total")
)

// ServerOptions configures the optional durability layer of a Server.
type ServerOptions struct {
	// DataDir is the durability directory. Empty means in-memory only.
	DataDir string
	// Fsync selects the WAL fsync policy (persist.FsyncBatch by default).
	Fsync persist.FsyncMode
}

// A durable server snapshots and truncates its log once it has outgrown
// compactAt bytes, checking every compactEvery.
const (
	compactAt    = 1 << 20
	compactEvery = 250 * time.Millisecond
)

// Server serves one storage object over TCP: a listener, one goroutine per
// connection that hands each decoded request to the object's Host and
// carries out what Serve returns, and the compaction loop. A connection's
// replies share one buffered writer, flushed only when the next request has
// not fully arrived (and before a netem stall or a logged request), so a
// pipelined run of requests is answered with one write. Everything the
// object IS — register instances, behavior, fault injection, epoch gate,
// write-ahead logging — is the embedded server.Host, the same one an
// in-process cluster mounts on a Mux's in-memory link. With a data directory
// configured, every state-mutating request is logged before the reply leaves
// and the instances are recovered on restart, so a crashed daemon resumes as
// a correct-but-slow object instead of an amnesiac one.
type Server struct {
	*server.Host

	lis    net.Listener
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	wal    server.Persister // nil: memory only
	gauges [2]string        // this server's callback-gauge names (Close unregisters them)

	warnCompact sync.Once
}

// NewServer starts serving object id on addr ("host:port"; ":0" picks a free
// port — use Addr to discover it) with no durability.
func NewServer(id int, addr string) (*Server, error) {
	return NewServerWith(id, addr, ServerOptions{})
}

// NewServerWith starts serving object id on addr with the given durability
// options. Recovery (snapshot load + WAL replay) completes before the
// listener accepts its first connection.
func NewServerWith(id int, addr string, opts ServerOptions) (*Server, error) {
	var wal server.Persister
	if opts.DataDir != "" {
		eng, err := persist.Open(opts.DataDir, persist.Options{Mode: opts.Fsync})
		if err != nil {
			return nil, fmt.Errorf("tcpnet: %w", err)
		}
		wal = eng
	}
	host, err := server.NewHost(id, wal)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: %w", err)
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		host.Close()
		return nil, fmt.Errorf("tcpnet: listen %s: %w", addr, err)
	}
	s := &Server{Host: host, lis: lis, wal: wal}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	// Keyed by listen address as well as object id: a replacement daemon for
	// a slot runs beside the outgoing one during a live replace, and closing
	// either must not take the other's gauges with it.
	labels := fmt.Sprintf(`{id="%d",addr=%q}`, id, s.Addr())
	s.gauges = [2]string{"tcpnet_server_registers" + labels, "tcpnet_server_epoch" + labels}
	obs.Default.GaugeFunc(s.gauges[0], func() int64 { return int64(host.Registers()) })
	obs.Default.GaugeFunc(s.gauges[1], func() int64 { return int64(host.Epoch()) })
	s.wg.Add(1)
	go s.acceptLoop()
	if wal != nil {
		s.wg.Add(1)
		go s.compactLoop()
	}
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close stops the server, waits for its connections to drain, and seals the
// write-ahead log.
func (s *Server) Close() {
	for _, name := range s.gauges {
		obs.Default.Unregister(name)
	}
	s.cancel()
	s.lis.Close()
	s.wg.Wait()
	s.Host.Close()
}

// compactLoop triggers compaction whenever the WAL outgrows the threshold.
func (s *Server) compactLoop() {
	defer s.wg.Done()
	t := time.NewTicker(compactEvery)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
			if s.wal.WALSize() < compactAt {
				continue
			}
			if err := s.Compact(); err != nil {
				// Once: a persistent failure would otherwise spam stderr.
				s.warnCompact.Do(func() { fmt.Fprintf(os.Stderr, "tcpnet: s%d: compaction: %v\n", s.ID, err) })
			}
		}
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	mSrvConns.Inc()
	defer mSrvConns.Dec()
	stop := context.AfterFunc(s.ctx, func() { conn.Close() })
	defer stop()
	dec := wire.NewDecoder(countingReader{conn, mSrvRxBytes})
	out := bufio.NewWriter(replyWriter{countingWriter{conn, mSrvTxBytes}})
	enc := wire.NewEncoder(out)
	// Flushed before every step that can wait (see Server). A writer whose
	// write failed keeps its error and writes nothing more.
	defer out.Flush()
	for {
		if !dec.Ready() && out.Flush() != nil {
			return
		}
		req, err := dec.DecodeRequest()
		if err != nil {
			return
		}
		if len(req.Subs) > 0 {
			mSrvBatch.Inc()
			mSrvBatchSubs.Record(int64(len(req.Subs)))
		} else {
			mSrvSingle.Inc()
		}
		if s.wal != nil && mutates(req) && out.Flush() != nil {
			return // Serve may wait on compaction, the log's order or an fsync
		}
		rsp, send, dup, delay := s.Serve(req)
		if !send {
			continue // lost request or withheld reply: the client sees silence
		}
		if delay > 0 {
			// The reply stalls on this connection's ordered stream — later
			// pipelined replies queue behind it, as real congestion would.
			if out.Flush() != nil {
				return
			}
			t := time.NewTimer(delay)
			select {
			case <-t.C:
			case <-s.ctx.Done():
				t.Stop()
				return
			}
		}
		if err := enc.EncodeResponse(rsp); err != nil {
			if errors.Is(err, wire.ErrFrameTooLarge) {
				// Nothing was written, so the stream is intact: stay silent
				// for this request only. Every shard's pipelined requests
				// share this connection — closing it because one register's
				// state outgrew a frame would take all of them down with it,
				// again on every retry.
				mSrvOversize.Inc()
				continue
			}
			return
		}
		if dup {
			// Duplicated on the wire: the client's demux must drop the copy
			// (its request id has already been resolved).
			if err := enc.EncodeResponse(rsp); err != nil {
				return
			}
		}
	}
}

// mutates reports whether Serve would log req on a durable server.
func mutates(req wire.Request) bool {
	m := server.Mutates(req.Msg) // a batch's own Msg is zero: false
	for _, sub := range req.Subs {
		m = m || server.Mutates(sub.Msg)
	}
	return m
}

// replyWriter counts the writes that carry reply bytes to the socket.
type replyWriter struct{ w io.Writer }

func (rw replyWriter) Write(p []byte) (int, error) {
	mSrvReplyWrites.Inc()
	return rw.w.Write(p)
}
