package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"robustatomic/internal/checker"
	"robustatomic/internal/obs"
	"robustatomic/internal/types"
)

// roundLabels are the protocol rounds a Store operation can run. WB_PREWRITE
// and WB_WRITE are the PREWRITE and WRITE rounds of a read's write-back.
var roundLabels = []string{"WVAL", "PREWRITE", "WRITE", "READ1", "READ2", "AREAD1", "AREAD2", "WB_PREWRITE", "WB_WRITE"}

// perLayer is what the traced run reports, layer by layer. README.md says
// which end-to-end metric each is expected to move, and on which workload.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "store.put_self_us", unit: "us"},
		{name: "store.get_self_us", unit: "us"},
		{name: "store.flush_fast_frac", unit: "ratio", better: "higher"},
		{name: "store.flush_certified_frac", unit: "ratio"},
		{name: "store.flush_noop_frac", unit: "ratio"},
		{name: "store.puts_per_flush", unit: "count", better: "higher"},
		{name: "store.get_elided_frac", unit: "ratio", better: "higher"},
		{name: "store.get_cache_hit_frac", unit: "ratio", better: "higher"},
		{name: "store.get_coalesced_frac", unit: "ratio", better: "higher"},
		{name: "store.inproc_put_us", unit: "us"},
		{name: "store.inproc_get_us", unit: "us"},
		{name: "shard.encode_us", unit: "us"},
		{name: "shard.decode_us", unit: "us"},
		{name: "shard.table_bytes", unit: "bytes"},
		{name: "proto.rounds_per_put", unit: "count"},
		{name: "proto.rounds_per_get", unit: "count"},
		{name: "proto.hook_rounds_per_op", unit: "count"},
		{name: "proto.round_overhead_us", unit: "us"},
		{name: "proto.combine_batch_subs_mean", unit: "count", better: "higher"},
		{name: "regular.decide_us.s4", unit: "us"},
		{name: "regular.decide_us.s7", unit: "us"},
		{name: "regular.decide_us.s7_byz", unit: "us"},
		{name: "retry.read_retries_per_get", unit: "count"},
		{name: "tcpnet.obj_rtt_us", unit: "us"},
		{name: "tcpnet.rtt_floor_us", unit: "us"},
		{name: "tcpnet.frames_per_op", unit: "count"},
		{name: "tcpnet.batch_subs_mean", unit: "count", better: "higher"},
		{name: "tcpnet.tx_bytes_per_op", unit: "bytes"},
		{name: "tcpnet.rx_bytes_per_op", unit: "bytes"},
		{name: "tcpnet.round_timeouts", unit: "count"},
		{name: "tcpnet.round_unsat", unit: "count"},
		{name: "tcpnet.redials", unit: "count"},
		{name: "tcpnet.conn_lost", unit: "count"},
		{name: "wire.encode_req_us", unit: "us"},
		{name: "wire.decode_req_us", unit: "us"},
		{name: "wire.req_bytes", unit: "bytes"},
		{name: "server.handle_us.prewrite", unit: "us"},
		{name: "server.handle_us.write", unit: "us"},
		{name: "server.handle_us.read", unit: "us"},
		{name: "server.registers", unit: "count"},
		{name: "persist.appends_per_put", unit: "count"},
		{name: "persist.wal_bytes_per_put", unit: "bytes"},
		{name: "persist.wal_bytes_per_user_byte", unit: "ratio"},
		{name: "persist.fsyncs_per_put", unit: "count"},
		{name: "persist.compactions_per_s", unit: "1/s"},
		{name: "persist.append_us_p50", unit: "us"},
		{name: "persist.fsync_us_p50", unit: "us"},
		{name: "persist.append_us", unit: "us"},
		{name: "persist.record_bytes", unit: "bytes"},
		{name: "persist.recover_us_per_record", unit: "us"},
		{name: "trace.overhead_frac", unit: "ratio"},
		{name: "trace.spans", unit: "count", better: "higher"},
		{name: "host.calib_ns_before", unit: "ns"},
		{name: "host.calib_ns_after", unit: "ns"},
		{name: "diag.ops_per_s", unit: "1/s", better: "higher"},
		{name: "diag.put_p90_us", unit: "us"},
		{name: "diag.get_p90_us", unit: "us"},
		{name: "diag.put_p99_us", unit: "us"},
		{name: "diag.get_p99_us", unit: "us"},
		{name: "diag.put_max_us", unit: "us"},
		{name: "diag.get_max_us", unit: "us"},
	}
	for _, l := range roundLabels {
		defs = append(defs, metricDef{name: "proto.round_us." + l, unit: "us"})
	}
	for i := range defs {
		if defs[i].better == "" {
			defs[i].better = "lower"
		}
	}
	return defs
}()

// layerMetrics computes the per-layer metrics of a traced run from the
// counters, the tracer's spans, the harness's own op spans and the probes,
// writes the spans out, and decides every key's history.
func layerMetrics(d *runData, s summary) (metrics, bool, error) {
	m := metrics{}
	counterMetrics(d, s, m)
	spans := spanMetrics(d, m)
	if err := runProbes(d, m); err != nil {
		return nil, false, err
	}
	m["tcpnet.rtt_floor_us"] = d.rttFloorUs
	m["server.registers"] = float64(d.registers)
	m["host.calib_ns_before"] = float64(d.calibBefore)
	m["host.calib_ns_after"] = float64(d.calibAfter)
	ops := d.inWindow()
	for _, get := range []bool{false, true} {
		lat, kind := latenciesUs(ops, get), "put"
		if get {
			kind = "get"
		}
		m["diag."+kind+"_p90_us"] = quantile(lat, 0.90)
		m["diag."+kind+"_p99_us"] = quantile(lat, 0.99)
		m["diag."+kind+"_max_us"] = quantile(lat, 1)
	}
	m["diag.ops_per_s"] = s.m["diag.ops_per_s"]
	m["trace.spans"] = float64(spans)
	err := checkHistories(d)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	return m, err == nil, nil
}

// counterMetrics derives the ratios the layers' own counters give, over the
// measured window.
func counterMetrics(d *runData, s summary, m metrics) {
	delta := func(name string) float64 { return float64(d.after.Counters[name] - d.before.Counters[name]) }
	puts, gets := float64(s.puts), float64(s.gets)
	ops := puts + gets

	fast, certified, noop := delta("store_flush_fast_total"), delta("store_flush_certified_total"), delta("store_flush_noop_total")
	flushes := fast + certified + noop + delta("store_flush_failed_total")
	m["store.flush_fast_frac"] = ratio(fast, flushes)
	m["store.flush_certified_frac"] = ratio(certified, flushes)
	m["store.flush_noop_frac"] = ratio(noop, flushes)
	m["store.puts_per_flush"] = ratio(puts, flushes)
	// Elision and cache hits are decided per shard read, and a coalesced Get
	// rides another Get's read.
	coalesced := delta("store_get_coalesced_total")
	m["store.get_coalesced_frac"] = ratio(coalesced, gets)
	m["store.get_elided_frac"] = ratio(delta("store_get_elided_total"), gets-coalesced)
	m["store.get_cache_hit_frac"] = ratio(delta("store_get_cache_hit_total"), gets-coalesced)

	var hookRounds, retries float64
	for label, n := range d.hookRounds {
		hookRounds += float64(n)
		if strings.HasPrefix(label, "RETRY_READ#") {
			retries += float64(n)
		}
	}
	m["proto.hook_rounds_per_op"] = ratio(hookRounds, ops)
	m["retry.read_retries_per_get"] = ratio(retries, gets)
	// The histograms cannot be cut to the window; theirs is the whole run,
	// preload and warm-up included.
	m["proto.combine_batch_subs_mean"] = d.after.Hists["proto_combine_batch_subs"].Mean
	m["tcpnet.batch_subs_mean"] = d.after.Hists["tcpnet_client_batch_subs"].Mean
	m["persist.append_us_p50"] = float64(d.after.Hists["persist_wal_append_us"].P50)
	m["persist.fsync_us_p50"] = float64(d.after.Hists["persist_fsync_us"].P50)

	m["tcpnet.frames_per_op"] = ratio(delta("tcpnet_server_requests_total")+delta("tcpnet_server_batch_requests_total"), ops)
	m["tcpnet.tx_bytes_per_op"] = ratio(delta("tcpnet_client_tx_bytes_total"), ops)
	m["tcpnet.rx_bytes_per_op"] = ratio(delta("tcpnet_client_rx_bytes_total"), ops)
	m["tcpnet.round_timeouts"] = delta("tcpnet_round_timeout_total")
	m["tcpnet.round_unsat"] = delta("tcpnet_round_unsat_total")
	m["tcpnet.redials"] = delta("tcpnet_redials_total")
	m["tcpnet.conn_lost"] = delta("tcpnet_conn_lost_total")

	walBytes := delta("persist_wal_bytes_total")
	m["persist.appends_per_put"] = ratio(delta("persist_wal_appends_total"), puts)
	m["persist.wal_bytes_per_put"] = ratio(walBytes, puts)
	m["persist.wal_bytes_per_user_byte"] = ratio(walBytes, puts*float64(len(keyName(0))+d.cfg.w.valueSize))
	m["persist.fsyncs_per_put"] = ratio(delta("persist_fsyncs_total"), puts)
	m["persist.compactions_per_s"] = ratio(delta("persist_compactions_total"), float64(d.windowEnd()-d.windowStart())/1e9)
}

// protoOp is one FLUSH or GET the tracer recorded, with times in ns since the
// run's base.
type protoOp struct {
	op         *obs.OpTrace
	start, end int64
	shard      int
	parent     int // index of the harness op it ran inside, -1 when none
}

// spanMetrics derives the span metrics: the tracer's op → round → object
// tree, and the harness's span around every Put and Get, which is the parent
// of the FLUSH or GET that ran inside it on its shard. It writes every span
// to <workload>.trace.json in the run's trace directory and returns how many there were.
func spanMetrics(d *runData, m metrics) int {
	rel := func(t time.Time) int64 { return int64(t.Sub(d.base)) }
	// byShard[get][shard] holds the tracer's ops in start order.
	byShard := map[bool]map[int][]*protoOp{false: {}, true: {}}
	var all []*protoOp
	oldest := d.windowEnd()
	for _, op := range d.tracer.Recent() {
		if len(op.Rounds) == 0 || (op.Name != "FLUSH" && op.Name != "GET") || op.Err != "" {
			continue
		}
		p := &protoOp{op: op, start: rel(op.Start), end: rel(op.End), shard: op.Rounds[0].Reg - 1, parent: -1}
		if p.start < oldest {
			oldest = p.start
		}
		get := op.Name == "GET"
		byShard[get][p.shard] = append(byShard[get][p.shard], p)
		all = append(all, p)
	}
	for _, shards := range byShard {
		for _, ops := range shards {
			sort.Slice(ops, func(i, j int) bool { return ops[i].start < ops[j].start })
		}
	}

	// Harness spans: self time is the span minus the rounds that ran inside
	// it: coalescer wait, table apply, encode and decode, cache.
	self := map[bool][]float64{}
	lat := map[[2]bool][]float64{} // {get, traced slice} → latencies
	var harness []int              // indices into d.recs of the spans written out
	for i, r := range d.recs {
		if r.failed || r.start < d.windowStart() || r.end > d.windowEnd() {
			continue
		}
		traced := d.tracedSlice(r.start)
		lat[[2]bool{r.get, traced}] = append(lat[[2]bool{r.get, traced}], float64(r.end-r.start)/1e3)
		// The ring keeps the newest ops; an older harness span has lost its
		// children and would read as all self time.
		if !traced || r.start < oldest {
			continue
		}
		harness = append(harness, i)
		ops := byShard[r.get][d.shardOf[r.key]]
		rounds := int64(0)
		for j := sort.Search(len(ops), func(j int) bool { return ops[j].start >= r.start }); j < len(ops) && ops[j].start <= r.end; j++ {
			if ops[j].end <= r.end && ops[j].parent < 0 {
				ops[j].parent = i
				for _, rt := range ops[j].op.Rounds {
					rounds += int64(rt.End.Sub(rt.Start))
				}
			}
		}
		self[r.get] = append(self[r.get], float64(r.end-r.start-rounds)/1e3)
	}
	m["store.put_self_us"] = median(self[false])
	m["store.get_self_us"] = median(self[true])
	// Tracing's cost: the same run's Puts in traced slices against its Puts
	// in the untraced slices between them.
	m["trace.overhead_frac"] = ratio(median(lat[[2]bool{false, true}]), median(lat[[2]bool{false, false}])) - 1

	roundUs := map[string][]float64{}
	var overhead, rtt []float64
	rounds := map[bool]float64{}
	count := map[bool]float64{}
	for _, p := range all {
		get := p.op.Name == "GET"
		count[get]++
		rounds[get] += float64(len(p.op.Rounds))
		for _, rt := range p.op.Rounds {
			label := rt.Label
			if get && (label == "PREWRITE" || label == "WRITE") {
				label = "WB_" + label
			}
			roundUs[label] = append(roundUs[label], float64(rt.End.Sub(rt.Start))/1e3)
			sent := map[int]time.Time{}
			var firstSend, lastReply time.Time
			for _, ev := range rt.Events {
				switch ev.Kind {
				case "send":
					sent[ev.SID] = ev.At
					if firstSend.IsZero() {
						firstSend = ev.At
					}
				case "reply":
					if at, ok := sent[ev.SID]; ok {
						rtt = append(rtt, float64(ev.At.Sub(at))/1e3)
						delete(sent, ev.SID)
					}
					lastReply = ev.At
				}
			}
			if !firstSend.IsZero() && !lastReply.IsZero() {
				// What the client spends around the wire: building and
				// queueing the requests, then accumulating and deciding.
				overhead = append(overhead, float64(rt.End.Sub(rt.Start)-lastReply.Sub(firstSend))/1e3)
			}
		}
	}
	m["proto.rounds_per_put"] = ratio(rounds[false], count[false])
	m["proto.rounds_per_get"] = ratio(rounds[true], count[true])
	for _, l := range roundLabels {
		m["proto.round_us."+l] = median(roundUs[l])
	}
	m["proto.round_overhead_us"] = median(overhead)
	m["tcpnet.obj_rtt_us"] = median(rtt)

	n, err := writeSpans(d, harness, all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: writing the trace:", err)
	}
	return n
}

// writeSpans counts the run's spans and writes those of the first traced
// slice (all of them would be some 5 MB per traced second) as JSON, one per
// line inside an array: the harness's Put and Get spans, the tracer's FLUSH
// and GET ops under them, their rounds, and under each round one span per
// object from request sent to reply received. Times are microseconds since
// the run's base.
func writeSpans(d *runData, harness []int, ops []*protoOp) (n int, err error) {
	until := d.windowEnd()
	if first := d.warm + 2; first < len(d.samples) {
		until = d.samples[first].at
	}
	if err := os.MkdirAll(d.cfg.traceDir, 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(filepath.Join(d.cfg.traceDir, d.cfg.w.name+".trace.json"))
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	out := bufio.NewWriterSize(f, 1<<20)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	rel := func(t time.Time) float64 { return us(int64(t.Sub(d.base))) }
	sep, written := "[\n", true
	span := func(id, parent, layer, name string, start, end float64) {
		n++
		if written {
			fmt.Fprintf(out, `%s{"id":%q,"parent":%q,"layer":%q,"name":%q,"start_us":%.3f,"end_us":%.3f}`, sep, id, parent, layer, name, start, end)
			sep = ",\n"
		}
	}
	for _, i := range harness {
		r, name := d.recs[i], "Put"
		if r.get {
			name = "Get"
		}
		written = r.start < until
		span(fmt.Sprintf("h%d", i), "", "store", name+" "+keyName(int(r.key)), us(r.start), us(r.end))
	}
	for _, p := range ops {
		id, parent := fmt.Sprintf("p%d", p.op.ID), ""
		if p.parent >= 0 {
			parent = fmt.Sprintf("h%d", p.parent)
		}
		written = p.start < until
		span(id, parent, "proto", fmt.Sprintf("%s shard %d", p.op.Name, p.shard), us(p.start), us(p.end))
		for ri, rt := range p.op.Rounds {
			rid := fmt.Sprintf("%s.%d", id, ri)
			span(rid, id, "proto", rt.Label, rel(rt.Start), rel(rt.End))
			sent := map[int]time.Time{}
			for _, ev := range rt.Events {
				if ev.Kind == "send" {
					sent[ev.SID] = ev.At
				} else if at, ok := sent[ev.SID]; ok {
					span(fmt.Sprintf("%s.s%d", rid, ev.SID), rid, "tcpnet", fmt.Sprintf("s%d %s", ev.SID, ev.Kind), rel(at), rel(ev.At))
					delete(sent, ev.SID)
				}
			}
		}
	}
	fmt.Fprint(out, "\n]\n")
	return n, out.Flush()
}

// checkHistories passes every key's history — the preload's Put, then every
// op of the run — through the multi-writer atomicity checker.
func checkHistories(d *runData) error {
	type event struct {
		at      int64
		respond bool
		rec     int
	}
	perKey := make([][]event, d.cfg.w.keys)
	for i, r := range d.recs {
		perKey[r.key] = append(perKey[r.key], event{r.start, false, i})
		if !r.failed {
			// A failed op stays pending: a failed Put may still take effect.
			perKey[r.key] = append(perKey[r.key], event{r.end, true, i})
		}
	}
	value := func(writer int8, ver int64) types.Value { return types.Value(fmt.Sprintf("%d.%d", writer, ver)) }
	for k, events := range perKey {
		// Invocations sort before responses at the same instant, which can
		// only make two ops concurrent that were not: the check stays sound.
		sort.SliceStable(events, func(i, j int) bool {
			if events[i].at != events[j].at {
				return events[i].at < events[j].at
			}
			return !events[i].respond && events[j].respond
		})
		var h checker.History
		h.Respond(h.Invoke(types.WriterID(preloadClient), checker.OpWrite, value(preloadClient, 1)), "")
		ids := map[int]int{}
		for _, ev := range events {
			r := d.recs[ev.rec]
			client := types.WriterID(int(r.client))
			switch {
			case !ev.respond && r.get:
				ids[ev.rec] = h.Invoke(client, checker.OpRead, "")
			case !ev.respond:
				ids[ev.rec] = h.Invoke(client, checker.OpWrite, value(r.writer, r.ver))
			default:
				h.Respond(ids[ev.rec], value(r.writer, r.ver))
			}
		}
		if err := checker.CheckAtomicMW(&h); err != nil {
			return fmt.Errorf("key %s: history not atomic: %w", keyName(k), err)
		}
	}
	return nil
}
