// Command storaged runs one storage object as a TCP daemon. A robust atomic
// deployment needs 3t+1 of these (one per object id):
//
//	storaged -id 1 -addr :7001 -data-dir /var/lib/robustatomic/s1 &
//	storaged -id 2 -addr :7002 -data-dir /var/lib/robustatomic/s2 &
//	storaged -id 3 -addr :7003 -data-dir /var/lib/robustatomic/s3 &
//	storaged -id 4 -addr :7004 -data-dir /var/lib/robustatomic/s4 &
//
// One daemon set hosts any number of independent register instances, lazily
// instantiated as clients address them — the single register of
// storctl read/write, and all N shards of the keyed Store layer behind
// storctl put/get.
//
// # Durability
//
// With -data-dir set, every state-mutating request is logged to a
// write-ahead log before the reply leaves and the state is periodically
// snapshotted and the log truncated, so a crashed or kill -9'd daemon
// restarts exactly where it stopped — a correct-but-slow object instead of
// an amnesiac one that silently burns the fault budget. SIGINT/SIGTERM
// compact once more before exiting: a planned restart (or upgrade) boots
// from a snapshot and an empty log. -fsync picks the machine-crash window:
// "always" fsyncs before every ack (group-committed under load), "batch"
// (default) fsyncs in the background every couple of milliseconds, "off"
// leaves flushing to the OS. All modes survive a killed process; fsync only
// matters when the whole machine dies. An empty -data-dir keeps the daemon
// purely in-memory, exactly the old behavior.
//
// To replace a dead machine, start a blank daemon on the old address and
// reconstitute it from the live quorum with `storctl repair`.
//
// # Chaos
//
// The -chaos flag makes the object Byzantine for demonstrations and drills:
//
//	garbage     fabricate huge-timestamp replies, drop writes
//	silent      process every message but never reply
//	flaky       honest, but drop each reply with -chaos-drop probability
//	            (seeded by -chaos-seed)
//	stale       acknowledge writes but serve reads from a state frozen at
//	            injection time, per register instance
//	equivocate  split-brain: honest to the writer, stale to readers
//	falseelide  answer reads with "value elided" claims the request never
//	            justified: un-offered, stale and forged timestamps in turn
//
// A behavior answers each sub-request of a batched frame on its own, so flaky
// also drops individual sub-replies out of batched replies.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"robustatomic/internal/obs"
	"robustatomic/internal/persist"
	"robustatomic/internal/server"
	"robustatomic/internal/tcpnet"
)

func main() {
	id := flag.Int("id", 1, "object id (1-based)")
	addr := flag.String("addr", ":7001", "listen address")
	dataDir := flag.String("data-dir", "", "durability directory (empty = in-memory only)")
	fsync := flag.String("fsync", "batch", "WAL fsync policy: always | batch | off")
	chaos := flag.String("chaos", "", "Byzantine behavior: garbage | silent | flaky | stale | equivocate | falseelide (empty = honest)")
	chaosDrop := flag.Float64("chaos-drop", 0.5, "flaky: probability of dropping a reply")
	chaosSeed := flag.Int64("chaos-seed", 1, "flaky: RNG seed for the drop pattern")
	debugAddr := flag.String("debug-addr", "", "observability HTTP address serving /metrics, /debug/vars and /debug/pprof (empty = off)")
	flag.Parse()

	mode, err := persist.ParseFsyncMode(*fsync)
	if err != nil {
		fmt.Fprintln(os.Stderr, "storaged:", err)
		os.Exit(2)
	}
	s, err := tcpnet.NewServerWith(*id, *addr, tcpnet.ServerOptions{DataDir: *dataDir, Fsync: mode})
	if err != nil {
		fmt.Fprintln(os.Stderr, "storaged:", err)
		os.Exit(1)
	}
	defer s.Close()
	if *chaos != "" {
		b, err := server.NamedBehavior(*chaos, rand.New(rand.NewSource(*chaosSeed)), *chaosDrop)
		if err != nil {
			fmt.Fprintln(os.Stderr, "storaged:", err)
			os.Exit(2)
		}
		s.SetBehavior(b)
	}
	if *debugAddr != "" {
		// Listen synchronously so a bad address fails loudly at startup (and
		// integration scripts can curl the moment the banner prints), then
		// serve in the background for the life of the daemon.
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "storaged: debug listener:", err)
			os.Exit(1)
		}
		go func() {
			if err := http.Serve(ln, obs.Handler(obs.Default, nil)); err != nil {
				fmt.Fprintln(os.Stderr, "storaged: debug server:", err)
			}
		}()
		fmt.Printf("storaged: debug endpoints on http://%s/metrics /debug/vars /debug/pprof\n", ln.Addr())
	}
	durability := "volatile"
	if *dataDir != "" {
		durability = fmt.Sprintf("wal@%s fsync=%s", *dataDir, mode)
	}
	fmt.Printf("storaged: object s%d serving on %s (%s, chaos=%q)\n", *id, s.Addr(), durability, *chaos)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Printf("storaged: shutting down (%d register instances hosted)\n", s.Registers())
	// A planned stop leaves a snapshot and an empty log behind, so the next
	// start replays nothing — it may be a release of another wire generation,
	// which refuses this one's log records. Only a crash replays a log, under
	// the binary that wrote it.
	if err := s.Compact(); err != nil {
		fmt.Fprintln(os.Stderr, "storaged: compaction at shutdown:", err)
	}
}
