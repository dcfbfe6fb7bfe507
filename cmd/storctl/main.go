// Command storctl is the client for a storaged cluster. It speaks both
// APIs: the paper's single robust atomic register (write/read) and the
// sharded multi-key Store layer (put/get/del), which hashes keys onto
// -shards independent registers hosted on the same daemons. It is also the
// operator tool for membership: repair reconstitutes a blank replacement
// daemon from a quorum of its live peers; probe inspects one daemon's raw
// register state; doctor sweeps the whole cluster for diverged register
// state; and config/join/leave/move query and change the epoch-versioned
// membership live (state migrates to incoming daemons automatically, and
// running clients refetch the new configuration transparently). reseed
// re-installs the certified configuration into a newcomer a join/move
// decided but failed to seed.
//
//	storctl -servers "h:7001,h:7002,h:7003,h:7004" -t 1 write hello
//	storctl -servers "h:7001,h:7002,h:7003,h:7004" -t 1 read
//	storctl -servers "h:7001,h:7002,h:7003,h:7004" -t 1 -shards 8 put order:42 shipped
//	storctl -servers "h:7001,h:7002,h:7003,h:7004" -t 1 -shards 8 get order:42
//	storctl -servers "h:7001,h:7002,h:7003,h:7004" -t 1 -shards 8 repair 3
//	storctl -servers "h:7001,h:7002,h:7003,h:7004" -t 1 -shards 8 probe 3
//	storctl -servers "h:7001,h:7002,h:7003,h:7004" -t 1 -shards 8 doctor
//	storctl -servers "h:7001,h:7002,h:7003,h:7004" -t 1 config
//	storctl -servers "h:7001,h:7002,h:7003,h:7004" -t 1 -shards 8 move 2 h:7005
//
// The -servers list is only the BOOTSTRAP membership: if the cluster was
// reconfigured since, operations transparently chase the wrong-epoch
// redirect to the active configuration (storctl config shows it).
//
// Every invocation recovers shard state from the cluster before writing, so
// puts compose across invocations. The registers are multi-writer and every
// client process has one identity: storctl processes that run CONCURRENTLY —
// reading, writing or operating (repair, join, move) — each take a distinct
// -writer id out of 0..R-1 (it is embedded in every timestamp the process
// issues), and every client of the deployment passes the same -readers R,
// the number of client processes the deployment is sized for. Concurrent puts to the same key resolve
// atomically to one of the written values; concurrent puts to different keys
// of the same shard are last-writer-wins at shard granularity. All clients of one
// deployment must agree on -shards — it determines which register a key
// routes to, and how many register instances repair reconstitutes
// (instance 0 plus one per shard).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"robustatomic"
	"robustatomic/internal/config"
	"robustatomic/internal/obs"
)

func main() {
	servers := flag.String("servers", "", "comma-separated object addresses (3t+1 of them, in id order)")
	t := flag.Int("t", 1, "fault budget")
	readers := flag.Int("readers", 2, "R, the deployment-wide count of client processes (the same for every client)")
	writerID := flag.Int("writer", 0, "this process's identity, 0..R-1 (concurrent storctl processes use distinct ids)")
	shards := flag.Int("shards", 8, "shard count of the keyed store (put/get/del, repair/probe)")
	trace := flag.Int("trace", 0, "per-op round tracing: sample one op in N (1 = every op, 0 = off); failed-op traces dump to stderr on error")
	flag.Parse()

	if err := run(*servers, *t, *readers, *writerID, *shards, *trace, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "storctl:", err)
		os.Exit(1)
	}
}

func run(servers string, t, readers, writerID, shards, trace int, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: storctl [flags] write <value> | read | put <key> <value> | get <key> | del <key> | burst <prefix> <count> | getburst <prefix> <count> | stats <debug-addr>... | repair <object-id> | probe <object-id> | doctor | config | join <addr> | leave <slot> | move <slot> <addr> | reseed <addr>")
	}
	addrs := strings.Split(servers, ",")
	if args[0] == "stats" {
		// Stats scrapes daemon debug endpoints directly; no cluster needed.
		if len(args) < 2 {
			return fmt.Errorf("usage: storctl stats <debug-addr>... (the storaged -debug-addr addresses)")
		}
		return stats(args[1:])
	}
	var tracer *obs.Tracer
	if trace > 0 {
		tracer = obs.NewTracer(256, trace)
		// Dump the round traces of every failed op next to the error: which
		// rounds ran, which objects replied, and what the replies carried.
		defer func() {
			if failed := tracer.Failed(); len(failed) > 0 {
				fmt.Fprintln(os.Stderr, "== failed-op round traces")
				fmt.Fprint(os.Stderr, tracer.FormatFailed())
			}
		}()
	}
	cluster, err := robustatomic.Connect(addrs, robustatomic.Options{Faults: t, Readers: readers, WriterID: writerID, Tracer: tracer})
	if err != nil {
		return err
	}
	defer cluster.Close()
	storeOpts := robustatomic.StoreOptions{Shards: shards}
	switch args[0] {
	case "write":
		if len(args) != 2 {
			return fmt.Errorf("usage: storctl write <value>")
		}
		if err := cluster.Writer().Write(args[1]); err != nil {
			return err
		}
		fmt.Println("OK (2 rounds uncontended; fallback on interference)")
		return nil
	case "read":
		r, err := cluster.Reader(writerID + 1)
		if err != nil {
			return err
		}
		v, err := r.Read()
		if err != nil {
			return err
		}
		fmt.Printf("%q (1 round stable, 2 for a fresh handle; 4 worst case)\n", v)
		return nil
	case "put":
		if len(args) != 3 {
			return fmt.Errorf("usage: storctl put <key> <value>")
		}
		st, err := cluster.NewStore(storeOpts)
		if err != nil {
			return err
		}
		if err := st.Put(args[1], args[2]); err != nil {
			return err
		}
		fmt.Printf("OK (shard %d/%d)\n", st.ShardOf(args[1]), st.Shards())
		return nil
	case "get":
		if len(args) != 2 {
			return fmt.Errorf("usage: storctl get <key>")
		}
		st, err := cluster.NewStore(storeOpts)
		if err != nil {
			return err
		}
		v, err := st.Get(args[1])
		if err != nil {
			return err
		}
		fmt.Printf("%q (shard %d/%d)\n", v, st.ShardOf(args[1]), st.Shards())
		return nil
	case "del":
		if len(args) != 2 {
			return fmt.Errorf("usage: storctl del <key>")
		}
		st, err := cluster.NewStore(storeOpts)
		if err != nil {
			return err
		}
		if err := st.Delete(args[1]); err != nil {
			return err
		}
		fmt.Printf("OK (shard %d/%d)\n", st.ShardOf(args[1]), st.Shards())
		return nil
	case "burst", "getburst":
		// burst hammers the store with <count> concurrent puts over ONE
		// pipelined connection set: keys <prefix>:1..count, value v<i>. This
		// is the integration-drill workload for the multiplexed wire — many
		// rounds in flight per daemon connection, cross-shard flushes
		// coalesced into batched frames — and it must ride out a daemon
		// being kill -9'd and restarted mid-burst (the mux fails that
		// connection's in-flight rounds, the quorum masks the loss, and the
		// 1s-backoff redial folds the daemon back in).
		//
		// getburst is the read-side drill symmetric to burst: the workers Get
		// keys <prefix>:1..count concurrently through ONE store (one reader
		// handle per shard) and verify each value is the v<i> a prior burst
		// wrote. The concurrency makes shard read coalescing real — Gets
		// landing on a shard with a read already in flight share the next
		// one's rounds — and the sweep must ride out daemon faults
		// exactly as the write drill does: write-back elision refuses while
		// the quorum view is disturbed and the 4-round fallback carries the
		// reads, so every certified value still comes back.
		if len(args) != 3 {
			return fmt.Errorf("usage: storctl %s <prefix> <count>", args[0])
		}
		count, err := strconv.Atoi(args[2])
		if err != nil || count < 1 {
			return fmt.Errorf("%s: bad count %q", args[0], args[2])
		}
		st, err := cluster.NewStore(storeOpts)
		if err != nil {
			return err
		}
		put := args[0] == "burst"
		start := time.Now()
		err = runBurst(count, func(i int) error {
			key, want := fmt.Sprintf("%s:%d", args[1], i), fmt.Sprintf("v%d", i)
			if put {
				if err := st.Put(key, want); err != nil {
					return fmt.Errorf("put %s: %w", key, err)
				}
				return nil
			}
			v, err := st.Get(key)
			if err == nil && v != want {
				err = fmt.Errorf("certified %q, want %q", v, want)
			}
			if err != nil {
				return fmt.Errorf("get %s: %w", key, err)
			}
			return nil
		})
		if err != nil {
			return err
		}
		elapsed := time.Since(start).Round(time.Millisecond)
		if put {
			fmt.Printf("OK burst: %d puts, %d workers, %v\n", count, burstWorkers, elapsed)
		} else {
			fmt.Printf("OK getburst: %d gets, %d workers, %v; read path 1/2/4 rounds: %s\n", count, burstWorkers, elapsed, readPathMix(obs.Default.Snapshot().Counters))
		}
		return nil
	case "probe":
		// Probe asks a single daemon (no quorum round runs, so none need be up
		// but that one): one line per register instance.
		if len(args) != 2 {
			return fmt.Errorf("usage: storctl probe <object-id>")
		}
		id, err := strconv.Atoi(args[1])
		if err != nil {
			return fmt.Errorf("probe: bad object id %q", args[1])
		}
		regs, err := cluster.Probe(id, shards)
		for _, r := range regs {
			fmt.Printf("s%d reg %d: pw=%s w=%s\n", id, r.Reg, r.PW, r.W)
		}
		return err
	case "doctor":
		if len(args) != 1 {
			return fmt.Errorf("usage: storctl doctor")
		}
		return doctor(cluster.Doctor(shards), addrs)
	case "repair":
		if len(args) != 2 {
			return fmt.Errorf("usage: storctl repair <object-id>")
		}
		id, err := strconv.Atoi(args[1])
		if err != nil {
			return fmt.Errorf("repair: bad object id %q", args[1])
		}
		repaired, err := cluster.Repair(id, shards)
		for _, r := range repaired {
			if r.Skipped {
				fmt.Printf("s%d reg %d: blank (never written), skipped\n", id, r.Reg)
				continue
			}
			fmt.Printf("s%d reg %d: installed ts=%s (%d bytes) from quorum\n", id, r.Reg, r.TS, r.Bytes)
		}
		if err != nil {
			return err
		}
		fmt.Printf("OK (%d register instances)\n", len(repaired))
		return nil
	case "config":
		cfg, err := cluster.ConfigQuery()
		if err != nil {
			return err
		}
		printConfig(cfg)
		return nil
	case "join":
		if len(args) != 2 {
			return fmt.Errorf("usage: storctl join <addr>")
		}
		cfg, migrated, err := cluster.Join(args[1], shards)
		printMigrated(migrated)
		if err != nil {
			return err
		}
		fmt.Printf("OK join: %s admitted\n", args[1])
		printConfig(cfg)
		return nil
	case "leave":
		if len(args) != 2 {
			return fmt.Errorf("usage: storctl leave <slot>")
		}
		sid, err := strconv.Atoi(args[1])
		if err != nil {
			return fmt.Errorf("leave: bad slot %q", args[1])
		}
		cfg, err := cluster.Leave(sid)
		if err != nil {
			return err
		}
		fmt.Printf("OK leave: slot %d vacated\n", sid)
		printConfig(cfg)
		return nil
	case "reseed":
		// The remediation for a join/move that decided the new configuration
		// but failed to seed the newcomer (ErrNewcomerUnseeded): re-read the
		// certified configuration and re-install it. Idempotent.
		if len(args) != 2 {
			return fmt.Errorf("usage: storctl reseed <addr>")
		}
		if err := cluster.ReseedConfig(args[1]); err != nil {
			return err
		}
		fmt.Printf("OK reseed: %s holds the certified configuration\n", args[1])
		return nil
	case "move":
		if len(args) != 3 {
			return fmt.Errorf("usage: storctl move <slot> <addr>")
		}
		sid, err := strconv.Atoi(args[1])
		if err != nil {
			return fmt.Errorf("move: bad slot %q", args[1])
		}
		cfg, migrated, err := cluster.Move(sid, args[2], shards)
		printMigrated(migrated)
		if err != nil {
			return err
		}
		fmt.Printf("OK move: slot %d now %s\n", sid, args[2])
		printConfig(cfg)
		return nil
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}

// burstWorkers is the concurrency of the burst and getburst drills.
const burstWorkers = 16

// runBurst runs op(1..count) over burstWorkers goroutines and returns the
// first error; a worker stops at its own first error.
func runBurst(count int, op func(i int) error) error {
	var (
		next    atomic.Int64
		firstMu sync.Mutex
		first   error
		wg      sync.WaitGroup
	)
	for w := 0; w < burstWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i > count {
					return
				}
				if err := op(i); err != nil {
					firstMu.Lock()
					if first == nil {
						first = err
					}
					firstMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// printConfig renders one configuration, vacant slots marked.
func printConfig(cfg config.Config) {
	fmt.Printf("epoch %d (%d/%d slots live)\n", cfg.Epoch, cfg.Live(), len(cfg.Addrs))
	for i, a := range cfg.Addrs {
		if a == config.Vacant {
			fmt.Printf("  slot %d: VACANT\n", i+1)
			continue
		}
		fmt.Printf("  slot %d: %s\n", i+1, a)
	}
}

// printMigrated renders a migration's per-instance outcomes.
func printMigrated(migrated []robustatomic.RepairedRegister) {
	for _, m := range migrated {
		if m.Skipped {
			fmt.Printf("migrate reg %d: blank (never written), skipped\n", m.Reg)
			continue
		}
		fmt.Printf("migrate reg %d: transferred ts=%s (%d bytes)\n", m.Reg, m.TS, m.Bytes)
	}
}

// doctor prints a sweep of every daemon's raw register state
// (Cluster.Doctor: each asked directly, an unreachable one reported and
// skipped): the affected daemons and the wipe+repair remediation, failing
// (exit 1) when anything diverged — clean clusters print OK.
func doctor(rep robustatomic.DoctorReport, addrs []string) error {
	for id := 1; id <= len(addrs); id++ {
		if err := rep.Skipped[id]; err != nil {
			fmt.Printf("s%d %s: UNREACHABLE (%v) — skipped\n", id, addrs[id-1], err)
		}
	}
	for _, d := range rep.Diverged {
		fmt.Printf("DIVERGED reg %d ts=%s: one timestamp, different values\n", d.Reg, d.TS)
		for _, h := range d.Holders {
			fmt.Printf("  s%d holds pw=%s w=%s\n", h.Object, h.PW, h.W)
		}
	}
	if len(rep.Diverged) == 0 {
		fmt.Printf("OK doctor: %d daemons scanned, no diverged timestamps", len(addrs)-len(rep.Skipped))
		if n := len(rep.Skipped); n > 0 {
			fmt.Printf(" (%d unreachable, not scanned)", n)
		}
		fmt.Println()
		return nil
	}
	fmt.Println("remediation — for each daemon listed above, ONE AT A TIME (wiping more")
	fmt.Println("than t daemons concurrently forfeits the fault budget):")
	fmt.Println("  1. stop the daemon")
	fmt.Println("  2. wipe its -data-dir")
	fmt.Println("  3. restart it blank on the same address")
	fmt.Println("  4. storctl -servers ... repair <object-id>")
	return fmt.Errorf("doctor: %d diverged timestamp(s) found", len(rep.Diverged))
}

// stats scrapes each daemon's /debug/vars and renders one combined table:
// metrics down, daemons across. Histograms render their sample count (the
// full distributions stay on /metrics). Two derived rows close the table:
// the share of READ slot values each daemon answered with a timestamp
// instead of the value (value-eliding reads) — near 1 on a settled cluster,
// and the first thing to look at when a daemon's tx bytes climb — and, for
// every scraped process that ran atomic reads itself (a client exposing
// /debug/vars; a daemon shows "-"), which round path they took: the shares
// decided in 1 round, in 2, and with the write-back (4) — which form
// the writes each daemon handled took (value-eliding writes: WRITEs that
// promoted a named pair : PREWRITEs spliced out of a held one : conditioned
// writes refused with `need value`; a daemon that needs the value on every
// write is lagging or lying) — and which objects its transport suspects, i.e.
// whose requests its rounds defer.
func stats(debugAddrs []string) error {
	client := &http.Client{Timeout: 5 * time.Second}
	snaps := make([]obs.Snapshot, len(debugAddrs))
	for i, addr := range debugAddrs {
		url := addr
		if !strings.Contains(url, "://") {
			url = "http://" + url
		}
		resp, err := client.Get(url + "/debug/vars")
		if err != nil {
			return fmt.Errorf("stats: %s: %w", addr, err)
		}
		err = json.NewDecoder(resp.Body).Decode(&snaps[i])
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("stats: %s: %w", addr, err)
		}
	}
	// Union of metric names across daemons, sorted: daemons restarted at
	// different times (or with different roles) expose different subsets.
	nameSet := map[string]bool{}
	for _, s := range snaps {
		for _, n := range s.Names() {
			nameSet[n] = true
		}
	}
	names := make([]string, 0, len(nameSet))
	const elidedRow, pathRow = "read values elided (ratio)", "read path 1/2/4 rounds (ratio)"
	width := len("writes promoted:spliced:need-value")
	for n := range nameSet {
		names = append(names, n)
		if len(n) > width {
			width = len(n)
		}
	}
	sort.Strings(names)
	fmt.Printf("%-*s", width, "metric")
	for i := range debugAddrs {
		fmt.Printf(" %12s", fmt.Sprintf("s%d", i+1))
	}
	fmt.Println()
	cell := func(s obs.Snapshot, name string) string {
		if v, ok := s.Counters[name]; ok {
			return strconv.FormatInt(v, 10)
		}
		if v, ok := s.Gauges[name]; ok {
			return strconv.FormatInt(v, 10)
		}
		if h, ok := s.Hists[name]; ok {
			return fmt.Sprintf("n=%d", h.Count)
		}
		return "-"
	}
	for _, n := range names {
		fmt.Printf("%-*s", width, n)
		for _, s := range snaps {
			fmt.Printf(" %12s", cell(s, n))
		}
		fmt.Println()
	}
	fmt.Printf("%-*s", width, elidedRow)
	for _, s := range snaps {
		elided, sent := s.Counters["server_read_values_elided_total"], s.Counters["server_read_values_sent_total"]
		if elided+sent == 0 {
			fmt.Printf(" %12s", "-")
			continue
		}
		fmt.Printf(" %12.3f", float64(elided)/float64(elided+sent))
	}
	fmt.Println()
	fmt.Printf("%-*s", width, pathRow)
	for _, s := range snaps {
		fmt.Printf(" %12s", readPathMix(s.Counters))
	}
	fmt.Println()
	fmt.Printf("%-*s", width, "writes promoted:spliced:need-value")
	for _, s := range snaps {
		p, sp, nv := s.Counters["server_write_promoted_total"], s.Counters["server_prewrite_spliced_total"], s.Counters["server_need_value_total"]
		if p+sp+nv == 0 {
			fmt.Printf(" %12s", "-")
			continue
		}
		fmt.Printf(" %12s", fmt.Sprintf("%d:%d:%d", p, sp, nv))
	}
	fmt.Println()
	// Which objects each scraped CLIENT currently defers (suspicion-ordered
	// rounds; a daemon runs no mux and shows "-"), and since when.
	fmt.Printf("%-*s", width, "suspects (sid:dissent run)")
	var since []string
	for i, s := range snaps {
		cell, held := "-", []string(nil)
		for sid := 1; ; sid++ {
			run, ok := s.Gauges[fmt.Sprintf(`tcpnet_object_dissent_run{sid="%d"}`, sid)]
			if !ok {
				break
			}
			cell = "none"
			if at := s.Gauges[fmt.Sprintf(`tcpnet_object_suspect_since_unix{sid="%d"}`, sid)]; at > 0 {
				held = append(held, fmt.Sprintf("s%d:%d", sid, run))
				since = append(since, fmt.Sprintf("%s suspects s%d since %s", debugAddrs[i], sid, time.Unix(at, 0).Format(time.RFC3339)))
			}
		}
		if len(held) > 0 {
			cell = strings.Join(held, ",")
		}
		fmt.Printf(" %12s", cell)
	}
	fmt.Println()
	for _, line := range since {
		fmt.Println(line)
	}
	return nil
}

// readPathMix renders the shares of a process's atomic reads decided in one
// round, in two, and with the write-back ("-" if it ran none).
func readPathMix(counters map[string]int64) string {
	one, elided, fallback := counters["core_read_one_round_total"], counters["core_read_elided_total"], counters["core_read_fallback_total"]
	n := float64(elided + fallback)
	if n == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f/%.2f/%.2f", float64(one)/n, float64(elided-one)/n, float64(fallback)/n)
}
