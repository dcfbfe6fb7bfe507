package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"robustatomic"
	"robustatomic/internal/core"
	"robustatomic/internal/persist"
	"robustatomic/internal/quorum"
	"robustatomic/internal/regular"
	"robustatomic/internal/server"
	"robustatomic/internal/tcpnet"
	"robustatomic/internal/types"
)

// The load model, the same on every workload: a closed loop of two client
// goroutines (the host has two processors, and Store callers block for their
// reply), uniform keys, eight reader identities per shard.
const (
	clients = 2
	readers = 8
	// preloadClient tags the values the preload writes.
	preloadClient = 99
)

// workload is one cluster shape and traffic mix. BENCHMARK.json carries the
// reason each one exists.
type workload struct {
	name      string
	faults    int  // t; the cluster has 3t+1 objects
	durable   bool // objects log to a WAL (fsync=off) in the run's scratch dir
	byzantine bool // after the preload, object 2 forges and object 5 serves a frozen past
	shards    int
	keys      int
	valueSize int
	getPct    int // share of Gets in percent; the rest are Puts
}

var workloads = []workload{
	{name: "small_mixed", faults: 1, shards: 64, keys: 1024, valueSize: 64, getPct: 50},
	{name: "durable_put", faults: 1, durable: true, shards: 64, keys: 1024, valueSize: 64, getPct: 10},
	{name: "bigtable_read", faults: 1, shards: 4, keys: 1024, valueSize: 128, getPct: 90},
	{name: "byz_t2_mixed", faults: 2, byzantine: true, shards: 64, keys: 1024, valueSize: 64, getPct: 50},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) objects() int { return 3*w.faults + 1 }

// keyspace is the benchmark's own record of what it wrote, which is what lets
// a Get be checked while the run is going. Every Put writes a value no earlier
// Put wrote: the key, the writing client and a per-key version, padded to the
// value size. (A Put of the value a key already holds takes Store's one-round
// no-op path, which would turn a write benchmark into a validation benchmark.)
// Each key is Put by one client only, so its versions are totally ordered and
// "a Get returns at least the version acknowledged before it was issued" is
// exactly what atomicity requires; Gets go to every key.
type keyspace struct {
	valueSize int
	names     []string
	issued    []atomic.Int64 // highest version handed to a Put of the key
	acked     []atomic.Int64 // highest version whose Put has returned
}

func newKeyspace(w workload) *keyspace {
	ks := &keyspace{
		valueSize: w.valueSize,
		names:     make([]string, w.keys),
		issued:    make([]atomic.Int64, w.keys),
		acked:     make([]atomic.Int64, w.keys),
	}
	for i := range ks.names {
		ks.names[i] = keyName(i)
	}
	return ks
}

func keyName(k int) string { return fmt.Sprintf("k%06d", k) }

const (
	clientDigits  = 2
	versionDigits = 10
)

// value builds the value client writes as version ver of key k, reusing buf.
func (ks *keyspace) value(buf []byte, k, client int, ver int64) ([]byte, string) {
	buf = fmt.Appendf(buf[:0], "%s%0*d%0*d", ks.names[k], clientDigits, client, versionDigits, ver)
	for len(buf) < ks.valueSize {
		buf = append(buf, 'x')
	}
	return buf, string(buf)
}

// parse splits a value read under key k into its writer and version; ok is
// false when the value was not written for this key by this benchmark.
func (ks *keyspace) parse(k int, v string) (client int, ver int64, ok bool) {
	name := ks.names[k]
	if len(v) != ks.valueSize || v[:len(name)] != name {
		return 0, 0, false
	}
	rest := v[len(name):]
	c, err1 := strconv.Atoi(rest[:clientDigits])
	ver, err2 := strconv.ParseInt(rest[clientDigits:clientDigits+versionDigits], 10, 64)
	return c, ver, err1 == nil && err2 == nil
}

// cluster is what the benchmark drives: the objects that cmd/storaged wraps,
// started in this process on loopback TCP, and a Store connected to them.
type cluster struct {
	servers []*tcpnet.Server
	conn    *robustatomic.Cluster
	store   *robustatomic.Store
	keys    *keyspace
}

func (cl *cluster) addrs() []string {
	addrs := make([]string, len(cl.servers))
	for i, s := range cl.servers {
		addrs[i] = s.Addr()
	}
	return addrs
}

func (cl *cluster) close() {
	if cl.conn != nil {
		cl.conn.Close()
	}
	for _, s := range cl.servers {
		s.Close()
	}
}

// setUp starts the objects, connects, builds the Store and preloads it: one
// client Puts every key once in key order, the reader registers are settled,
// then the client Gets every key once. The time it takes is the setup_s
// metric. dir holds the objects' data directories when the workload is
// durable.
func (w workload) setUp(dir string, opts robustatomic.Options) (*cluster, time.Duration, error) {
	start := time.Now()
	cl := &cluster{keys: newKeyspace(w)}
	for id := 1; id <= w.objects(); id++ {
		var so tcpnet.ServerOptions
		if w.durable {
			// fsync=off: the run is confined to its checkout, so the logs sit
			// on its disk, and with fsync=batch the 2 ms background fsync
			// measures that disk (README.md). What blocks a request — gob
			// encode, append, rotation and compaction — is the same.
			so = tcpnet.ServerOptions{DataDir: filepath.Join(dir, fmt.Sprintf("s%d", id)), Fsync: persist.FsyncOff}
		}
		s, err := tcpnet.NewServerWith(id, "127.0.0.1:0", so)
		if err != nil {
			cl.close()
			return nil, 0, err
		}
		cl.servers = append(cl.servers, s)
	}
	opts.Faults = w.faults
	opts.Readers = readers
	conn, err := robustatomic.Connect(cl.addrs(), opts)
	if err != nil {
		cl.close()
		return nil, 0, err
	}
	cl.conn = conn
	if cl.store, err = conn.NewStore(robustatomic.StoreOptions{Shards: w.shards}); err != nil {
		cl.close()
		return nil, 0, err
	}
	err = cl.fill()
	if err == nil {
		err = cl.settle(w)
	}
	if err == nil {
		err = cl.readBack()
	}
	if err != nil {
		cl.close()
		return nil, 0, fmt.Errorf("preload: %w", err)
	}
	if w.byzantine {
		// The paper's adversary at full budget, without randomness or drop
		// timeouts: one object reports inflated timestamps and forged
		// values, one answers every read from the state it held here.
		cl.servers[1].SetBehavior(server.Garbage{Level: 1 << 30, Val: "forged"})
		cl.servers[4].SetBehavior(&server.Stale{})
	}
	return cl, time.Since(start), nil
}

// fill Puts version 1 of every key, in key order.
func (cl *cluster) fill() error {
	ks := cl.keys
	var buf []byte
	for k, name := range ks.names {
		var v string
		buf, v = ks.value(buf, k, preloadClient, 1)
		if err := cl.store.Put(name, v); err != nil {
			return err
		}
		ks.issued[k].Store(1)
		ks.acked[k].Store(1)
	}
	return nil
}

// readBack Gets every key and checks that it reads what fill wrote.
func (cl *cluster) readBack() error {
	ks := cl.keys
	for k, name := range ks.names {
		v, err := cl.store.Get(name)
		if err != nil {
			return err
		}
		if _, ver, ok := ks.parse(k, v); !ok || ver != 1 {
			return fmt.Errorf("key %s reads %q after the preload", name, v)
		}
	}
	return nil
}

// settle brings the objects to the state a long-lived deployment is in. A
// reader identity's write-back register on a shard is empty until that reader
// first reads the shard with the write-back not elided, which happens to a
// fraction of a percent of reads; from then on it holds a copy of the shard's
// table, and every reply to every read of the shard carries all nine
// registers. Left to the load, the 8 × shards registers fill over minutes and
// Get latency and bytes climb by a quarter meanwhile, so no two runs measure
// the same system. settle performs that first four-round read for every reader
// identity of every shard, through a connection of its own, while the Store's
// handles of the same identities are idle.
func (cl *cluster) settle(w workload) error {
	th, err := quorum.NewThresholds(w.objects(), w.faults)
	if err != nil {
		return err
	}
	mux := tcpnet.NewMux(cl.addrs())
	defer mux.Close()
	for reg := 1; reg <= w.shards; reg++ { // shard i lives on register instance i+1
		for idx := 1; idx <= readers; idx++ {
			c := mux.Client(types.Reader(idx), reg)
			r := core.NewReader(c, th, idx, readers)
			p, err := r.ReadPair()
			if err != nil {
				return err
			}
			if !r.Elided {
				continue
			}
			back := regular.NewWriterAt(c, th, types.ReaderReg(idx), 0, types.At(r.Seq()))
			if err := back.WritePair(types.Pair{TS: types.At(r.Seq() + 1), Val: core.EncodePair(p)}); err != nil {
				return err
			}
		}
	}
	return nil
}

// opRec is one operation as the benchmark saw it. Times are nanoseconds since
// the run's base time.
type opRec struct {
	start, end int64
	ver        int64 // Put: the version written; Get: the version returned
	key        int32
	client     int8 // the client that ran the op
	writer     int8 // the client whose value the op wrote or returned
	get        bool
	failed     bool
}

// failureLog prints the first few failed operations and counts the rest.
type failureLog struct {
	mu sync.Mutex
	n  int
}

func (f *failureLog) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.n++; f.n <= 5 {
		fmt.Fprintf(os.Stderr, "bench: failed op: "+format+"\n", args...)
	}
}

// drive runs client id's closed loop until stopAt and returns every operation
// it completed. A failed op, a Get whose value was not written for its key,
// a Get below the version acknowledged before it was issued and a Get above
// any version issued all count as failed.
func (cl *cluster) drive(w workload, id int, rng *rand.Rand, base time.Time, stopAt int64, fails *failureLog) []opRec {
	ks, st := cl.keys, cl.store
	recs := make([]opRec, 0, 1<<16)
	own := (w.keys + clients - 1 - id) / clients // keys k with k%clients == id
	var buf []byte
	for {
		now := int64(time.Since(base))
		if now >= stopAt {
			return recs
		}
		if rng.Intn(100) < w.getPct {
			k := rng.Intn(w.keys)
			floor := ks.acked[k].Load()
			rec := opRec{key: int32(k), client: int8(id), get: true, start: now}
			v, err := st.Get(ks.names[k])
			rec.end = int64(time.Since(base))
			writer, ver, ok := ks.parse(k, v)
			switch {
			case err != nil:
				fails.add("Get %s: %v", ks.names[k], err)
			case !ok:
				fails.add("Get %s returned %q, which was never written for it", ks.names[k], v)
			case ver < floor:
				fails.add("Get %s returned version %d after version %d was acknowledged", ks.names[k], ver, floor)
			case ver > ks.issued[k].Load():
				fails.add("Get %s returned version %d, which no Put has written", ks.names[k], ver)
			}
			rec.failed = err != nil || !ok || ver < floor || ver > ks.issued[k].Load()
			rec.writer, rec.ver = int8(writer), ver
			recs = append(recs, rec)
			continue
		}
		k := rng.Intn(own)*clients + id
		ver := ks.issued[k].Load() + 1
		ks.issued[k].Store(ver)
		var v string
		buf, v = ks.value(buf, k, id, ver)
		rec := opRec{key: int32(k), client: int8(id), writer: int8(id), ver: ver, start: int64(time.Since(base))}
		err := st.Put(ks.names[k], v)
		rec.end = int64(time.Since(base))
		if err != nil {
			fails.add("Put %s: %v", ks.names[k], err)
			rec.failed = true
		} else {
			ks.acked[k].Store(ver)
		}
		recs = append(recs, rec)
	}
}
