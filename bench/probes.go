package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"robustatomic"
	"robustatomic/internal/persist"
	"robustatomic/internal/quorum"
	"robustatomic/internal/regular"
	"robustatomic/internal/server"
	"robustatomic/internal/shard"
	"robustatomic/internal/tcpnet"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

// A probe times one layer's exported functions on their own, in a single
// goroutine, on inputs shaped like the workload's: what that layer costs when
// nothing else runs. Each reports the median over batches of calls.

// probeUs calls fn batches×per times and returns the median batch's time per
// call, in microseconds. Cheap calls get a larger per so that reading the
// clock does not show.
func probeUs(batches, per int, fn func()) float64 {
	times := make([]float64, batches)
	for b := range times {
		start := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		times[b] = float64(time.Since(start)) / 1e3 / float64(per)
	}
	return median(times)
}

// shardTable builds the table of the workload's first shard as the preload
// leaves it, with its sorted keys and its encoding.
func shardTable(w workload) (keys []string, table map[string]string, encoded string) {
	ks := newKeyspace(w)
	router, _ := shard.NewRouter(w.shards) // the shard counts are constants ≥ 1
	table = map[string]string{}
	var buf []byte
	for k, name := range ks.names {
		if router.Locate(name) == 0 {
			var v string
			buf, v = ks.value(buf, k, preloadClient, 1)
			table[name] = v
		}
	}
	keys = shard.SortedKeys(table)
	return keys, table, shard.EncodeSorted(keys, table)
}

func probeShard(keys []string, table map[string]string, encoded string, calls int, m metrics) {
	var enc []byte
	var sink types.Value
	m["shard.encode_us"] = probeUs(calls/4, 4, func() {
		// What a flush does: encode into the committer's buffer, then copy
		// the bytes into the immutable register value.
		enc = shard.AppendSorted(enc[:0], keys, table)
		sink = types.Value(enc)
	})
	_ = sink
	m["shard.decode_us"] = probeUs(calls/4, 4, func() {
		if _, err := shard.DecodeTable(encoded); err != nil {
			panic(err) // the input was encoded two lines up
		}
	})
	m["shard.table_bytes"] = float64(len(encoded))
}

// tableWrite is the WRITE request of a flush that installs the encoded table.
func tableWrite(encoded string) wire.Request {
	return wire.Request{
		ID: 1 << 20, From: types.WriterID(0), Epoch: 1, Reg: 1,
		Msg: types.Message{Kind: types.MsgWrite, Pair: types.Pair{TS: types.At(1 << 20), Val: types.Value(encoded)}, Seq: 1 << 20},
	}
}

// replay is a stream that holds one frame over and over.
type replay struct {
	frame []byte
	off   int
}

func (r *replay) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

func probeWire(req wire.Request, calls int, m metrics) error {
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	var err error
	m["wire.encode_req_us"] = probeUs(calls/4, 4, func() {
		buf.Reset()
		if e := enc.EncodeRequest(req); e != nil {
			err = e
		}
	})
	m["wire.req_bytes"] = float64(buf.Len())
	dec := wire.NewDecoder(&replay{frame: append([]byte(nil), buf.Bytes()...)})
	m["wire.decode_req_us"] = probeUs(calls/4, 4, func() {
		if _, e := dec.DecodeRequest(); e != nil {
			err = e
		}
	})
	return err
}

func probeServer(req wire.Request, calls int, m metrics) {
	st := server.NewStore()
	seq := int64(0)
	write := func(kind types.MsgKind) func() {
		return func() {
			seq++
			st.Handle(req.From, types.Message{Kind: kind, Pair: types.Pair{TS: types.At(seq), Val: req.Msg.Pair.Val}})
		}
	}
	m["server.handle_us.prewrite"] = probeUs(calls/20, 20, write(types.MsgPreWrite))
	m["server.handle_us.write"] = probeUs(calls/20, 20, write(types.MsgWrite))
	// A Store read asks for the shard's register and every reader's
	// write-back register in one bundle.
	read := types.Message{Kind: types.MsgMux, Sub: []types.SubMsg{{Reg: types.WriterReg, Msg: types.Message{Kind: types.MsgRead1}}}}
	for i := 1; i <= readers; i++ {
		read.Sub = append(read.Sub, types.SubMsg{Reg: types.ReaderReg(i), Msg: types.Message{Kind: types.MsgRead1}})
	}
	m["server.handle_us.read"] = probeUs(calls/20, 20, func() { st.Handle(types.Reader(1), read) })
}

// probePersist appends the flush's WRITE request to a fresh WAL (fsync=batch)
// in dir, then reopens the directory and replays it.
func probePersist(req wire.Request, calls int, dir string, m metrics) error {
	// 2000 records, fewer when they are large: the log is written to the
	// checkout's disk, and 2000 bigtable_read records would be 70 MB of it.
	n := calls
	if max := (16 << 20) / len(req.Msg.Pair.Val); n > max {
		n = max
	}
	eng, err := persist.Open(dir, persist.Options{Mode: persist.FsyncBatch})
	if err != nil {
		return err
	}
	if _, err := eng.Recover(); err != nil {
		eng.Close()
		return err
	}
	seq := int64(0)
	m["persist.append_us"] = probeUs(n/4, 4, func() {
		seq++
		req.Msg.Pair.TS = types.At(seq)
		if e := eng.Append(req); e != nil {
			err = e
		}
	})
	records := n / 4 * 4
	m["persist.record_bytes"] = float64(eng.WALSize()) / float64(records)
	if cerr := eng.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	start := time.Now()
	eng, err = persist.Open(dir, persist.Options{Mode: persist.FsyncBatch})
	if err != nil {
		return err
	}
	_, err = eng.Recover()
	m["persist.recover_us_per_record"] = float64(time.Since(start)) / 1e3 / float64(records)
	if cerr := eng.Close(); err == nil {
		err = cerr
	}
	return err
}

// probeDecide fills a read's two-round accumulator until it decides, with the
// replies of s objects arriving in order. With byz set, object 2 reports a
// forged pair and object 5 an old one, as in byz_t2_mixed.
func probeDecide(s, t int, byz bool, calls int) float64 {
	th, err := quorum.NewThresholds(s, t)
	if err != nil {
		panic(err) // the three shapes probed are constants
	}
	cur := types.Pair{TS: types.TS{Seq: 1000, WID: 1}, Val: "current"}
	replies := make([]types.Message, s+1)
	for sid := 1; sid <= s; sid++ {
		replies[sid] = types.Message{Kind: types.MsgState, PW: cur, W: cur}
	}
	if byz {
		forged := types.Pair{TS: types.At(1 << 30), Val: "forged"}
		old := types.Pair{TS: types.TS{Seq: 1, WID: 99}, Val: "old"}
		replies[2] = types.Message{Kind: types.MsgState, PW: forged, W: forged}
		replies[5] = types.Message{Kind: types.MsgState, PW: old, W: old}
	}
	acc := regular.NewReadAcc(th)
	acc.MultiWriter = true
	return probeUs(calls/10, 10, func() {
		acc.Reset()
		for sid := 1; sid <= s && !acc.Done(); sid++ {
			acc.Add(sid, replies[sid])
		}
		acc.BeginDecide()
		for sid := 1; sid <= s && !acc.Done(); sid++ {
			acc.Add(sid, replies[sid])
		}
		if !acc.Done() || acc.Choice() != cur {
			panic(fmt.Sprintf("decide probe s=%d byz=%v: done=%v choice=%v", s, byz, acc.Done(), acc.Choice()))
		}
	})
}

// probeInproc runs the workload's Store shape over the in-process runtime (no
// TCP, no WAL, every object honest): the floor of store and protocol CPU
// under one operation.
func probeInproc(w workload, calls int, seed int64, m metrics) error {
	c, err := robustatomic.NewCluster(robustatomic.Options{Faults: w.faults, Readers: readers, Seed: seed})
	if err != nil {
		return err
	}
	defer c.Close()
	cl := &cluster{keys: newKeyspace(w)}
	if cl.store, err = c.NewStore(robustatomic.StoreOptions{Shards: w.shards}); err != nil {
		return err
	}
	if err := cl.fill(); err != nil {
		return err
	}
	if err := cl.readBack(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	ks := cl.keys
	var buf []byte
	m["store.inproc_put_us"] = probeUs(calls, 1, func() {
		k := rng.Intn(w.keys)
		ver := ks.issued[k].Add(1)
		var v string
		buf, v = ks.value(buf, k, 0, ver)
		if e := cl.store.Put(ks.names[k], v); e != nil {
			err = e
		}
	})
	m["store.inproc_get_us"] = probeUs(calls, 1, func() {
		if _, e := cl.store.Get(ks.names[rng.Intn(w.keys)]); e != nil {
			err = e
		}
	})
	return err
}

// probeRTTFloor runs single READ rounds on a register no shard uses, through
// a connection of its own to the run's objects: the cost of one round with
// nothing in it.
func probeRTTFloor(w workload, calls int, addrs []string) (float64, error) {
	th, err := quorum.NewThresholds(len(addrs), w.faults)
	if err != nil {
		return 0, err
	}
	mux := tcpnet.NewMux(addrs)
	defer mux.Close()
	c := mux.Client(types.Reader(1), w.shards+1) // shards live on instances 1..shards
	us := probeUs(calls, 1, func() {
		spec, _ := regular.Read1Spec(th, types.WriterReg)
		if e := c.Round(spec); e != nil {
			err = e
		}
	})
	return us, err
}

// runProbes fills in every probe metric that needs no running cluster.
func runProbes(d *runData, m metrics) error {
	w, calls := d.cfg.w, d.cfg.probeCalls
	keys, table, encoded := shardTable(w)
	req := tableWrite(encoded)
	probeShard(keys, table, encoded, calls, m)
	if err := probeWire(req, calls, m); err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	probeServer(req, calls, m)
	dir, cleanup, err := tempDir(d.cfg.scratch, "probe-")
	if err != nil {
		return err
	}
	defer cleanup()
	if err := probePersist(req, calls, dir, m); err != nil {
		return fmt.Errorf("persist probe: %w", err)
	}
	m["regular.decide_us.s4"] = probeDecide(4, 1, false, calls)
	m["regular.decide_us.s7"] = probeDecide(7, 2, false, calls)
	m["regular.decide_us.s7_byz"] = probeDecide(7, 2, true, calls)
	if err := probeInproc(w, calls, d.cfg.seed, m); err != nil {
		return fmt.Errorf("in-process probe: %w", err)
	}
	return nil
}
