// Package robustatomic is a robust atomic read/write storage library: a
// wait-free, optimally resilient MULTI-WRITER multi-reader atomic register
// over S = 3t+1 Byzantine-prone storage objects without data authentication.
// "The Complexity of Robust Atomic Storage" (Dobre, Guerraoui, Majuntke,
// Suri, Vukolić; PODC 2011) proves 4-round reads optimal in the WORST case;
// both operations here are ADAPTIVE. Writes take 2 rounds — the paper's
// single-writer optimum — whenever no concurrent foreign writer interferes
// (the optimistic proposal's prewrite round doubles as its validation),
// degrading to 3 under genuine write contention and bounded further only
// against Byzantine-forged reports. Reads take 1 round on a stable
// register: when 2t+1 objects' first replies agree, no decision round is
// needed, and when the replies certify the chosen value as completely
// written on a full quorum, the 2-round write-back is provably redundant
// and elided (see the internal/core package documentation for the safety
// argument) — 2 rounds when only the decision round can tell, falling
// back to the full 4 exactly when a concurrent or Byzantine-disturbed
// execution leaves completeness in doubt. The price of robustness is thus
// paid only when contention or faults actually show up. Timestamps are
// lexicographically ordered (Seq, WriterID) pairs, so writers that race to
// the same sequence number still issue totally ordered timestamps. (The
// paper's secret-token model is kept as a reference, package secret under
// internal/; it is not a deployment option.)
//
// The library runs over an in-process cluster (the objects in this process,
// with optional fault injection) or over TCP against storage daemons
// (cmd/storaged); the protocol stack, the round engine and the object code
// are identical in both cases — only the link differs.
// Every client process of one deployment configures a distinct
// Options.WriterID, its process identity:
//
//	cluster, _ := robustatomic.NewCluster(robustatomic.Options{Faults: 1, Readers: 2})
//	defer cluster.Close()
//	w := cluster.Writer()
//	_ = w.Write("hello") // 2 rounds uncontended (adaptive fast path)
//	r, _ := cluster.Reader(1)
//	v, _ := r.Read() // "hello" (1 round stable; 2 or 4 disturbed — 4 is the paper's optimum)
//
// Beyond the paper's single register, Store shards a keyed Put/Get API over
// N independent MWMR registers hosted on the same objects. Within a
// process, concurrent writes to one shard coalesce into a single flush
// (group commit; a certified read-modify-write — 3 rounds on a settled
// shard — and its read alone, no write, for no-op batches); across
// processes, separately Connected clients with distinct
// WriterIDs may Put concurrently — contention on the same key resolves
// atomically to one of the written values:
//
//	st, _ := cluster.NewStore(robustatomic.StoreOptions{Shards: 8})
//	_ = st.Put("order:42", "shipped")
//	v, _ = st.Get("order:42") // "shipped"
//
// Daemons started with -data-dir write-ahead-log every state mutation and
// recover it on restart, so a crashed object resumes as correct-but-slow
// instead of burning the fault budget with amnesia; Cluster.Repair (storctl repair)
// reconstitutes a wiped replacement object from a quorum of its live peers.
//
// See DESIGN.md for the paper reproduction map, the multi-writer promotion,
// the Store layer design and the durability subsystem, and EXPERIMENTS.md
// for the measured results (E11: the multi-writer round tax and contention
// behavior).
package robustatomic

import (
	"errors"
	"fmt"
	"math/rand"

	"robustatomic/internal/core"
	"robustatomic/internal/obs"
	"robustatomic/internal/proto"
	"robustatomic/internal/quorum"
	"robustatomic/internal/server"
	"robustatomic/internal/sim"
	"robustatomic/internal/tcpnet"
	"robustatomic/internal/types"
)

// Options configures a cluster.
type Options struct {
	// Faults is t, the number of Byzantine storage objects tolerated.
	// The cluster uses S = 3t+1 objects. Default 1.
	Faults int
	// Readers is R, the deployment-wide number of client processes, the same
	// in every one of them: it bounds WriterID. A read consults the shared
	// register alone, whatever R is, so it costs nothing to leave room for
	// processes yet to come. Default 2.
	Readers int
	// WriterID is this process's identity i, 0 ≤ i < Readers: the process is
	// writer w_i — i is embedded in every timestamp it issues, breaking ties
	// between writers that picked the same sequence number — and reader
	// r_(i+1), which is what the Store, Repair, Join and Move read as. Two
	// live processes of one deployment MUST NOT share an id; reusing one
	// across sequential process lifetimes is safe (a reader issues no
	// timestamps).
	WriterID int
	// Seed drives injected in-process faults.
	Seed int64
	// RoundHook, when set, is invoked with the round's label after every
	// successfully completed communication round of every handle built from
	// this cluster — instrumentation for round-complexity assertions and
	// benchmarks (tests assert "2 rounds per uncontended write" instead of
	// inferring it from latency). It may be called concurrently from the
	// goroutines driving operations; keep it cheap and thread-safe.
	RoundHook func(label string)
	// Tracer, when set, samples per-operation round traces: every handle's
	// round executor is wrapped so that a Store flush or Get the tracer
	// selects records each of its rounds with per-object send/reply/error
	// timestamps (including sub-rounds riding another leader's merged batch
	// frame). Off the sampled path the wrapper costs one atomic load per
	// round. Failed traced operations are retained for post-mortem dumps —
	// see obs.Tracer.FormatFailed and the chaos harnesses.
	Tracer *obs.Tracer
}

// ErrProcessID is returned by NewCluster, Connect and Sibling for a WriterID
// outside 0..Readers-1 (no identity of the deployment), and by Sibling for
// its parent's WriterID (two live handles, one identity).
var ErrProcessID = errors.New("robustatomic: bad process identity")

// ErrWriteOvertaken is Writer.Write's (see there); the write may have taken effect.
var ErrWriteOvertaken = core.ErrOvertaken

func (o *Options) defaults() {
	if o.Faults == 0 {
		o.Faults = 1
	}
	if o.Readers == 0 {
		o.Readers = 2
	}
}

// Cluster is a handle to a running storage cluster (in-process or remote).
// Handle creation (Writer, Reader, NewStore) is safe for concurrent use;
// each handle is then single-goroutine as the model prescribes.
type Cluster struct {
	opts Options
	deployment

	// mux is this process's transport: every handle's rounds multiplex over
	// its one link per object — a pipelined TCP connection to a daemon
	// (dialed on first use), the in-memory link to an object of this process,
	// or the simulator's scheduled one.
	mux *tcpnet.Mux
	// combiner merges concurrent Store shard flushes (this process's writer
	// identity) into batched rounds: one frame per object for the whole
	// batch. Nil where the link says a request costs no frame (Mux.Framed).
	combiner *proto.Combiner
}

// deployment is what the client processes of one cluster have in common.
type deployment struct {
	th quorum.Thresholds
	// addrs is the bootstrap configuration (slot sid-1 → address), on whatever
	// fabric the link resolves addresses: sockets, or reg — the objects hosted
	// in this process, which only the fault-injection passthrough (host) asks
	// for; nil when they are daemons.
	addrs []string
	reg   *tcpnet.Registry
	// dial builds one client process's transport to the objects, and wait is
	// the shard.Group hook of every group commit over it: nil, except under
	// the simulator's one-at-a-time scheduler.
	dial func() *tcpnet.Mux
	wait func(done, lead <-chan struct{})
}

// newCluster checks the process identity and builds the handle and its
// transport.
func newCluster(opts Options, d deployment) (*Cluster, error) {
	if opts.WriterID < 0 || opts.WriterID >= opts.Readers {
		return nil, fmt.Errorf("%w: WriterID %d out of 0..%d (Readers counts the deployment's client processes)", ErrProcessID, opts.WriterID, opts.Readers-1)
	}
	c := &Cluster{opts: opts, deployment: d, mux: d.dial()}
	if c.mux.Framed() {
		c.combiner = proto.NewCombiner(c.mux.Client(types.WriterID(opts.WriterID), 0))
		c.combiner.SetWait(d.wait)
	}
	return c, nil
}

// mixSeed derives a deterministic sub-seed from the cluster seed and an
// injected fault's coordinates, splitmix64-style: near-identical inputs
// (adjacent object ids) yield unrelated streams, and no two faults share a
// *rand.Rand (which is not concurrency-safe).
func mixSeed(seed int64, salts ...int64) int64 {
	z := uint64(seed) ^ 0x5eedcafe
	for _, s := range salts {
		z ^= uint64(s) + 0x9e3779b97f4a7c15 + (z << 6) + (z >> 2)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z)
}

// NewCluster starts an in-process cluster of S = 3t+1 storage objects.
func NewCluster(opts Options) (*Cluster, error) {
	opts.defaults()
	th, err := quorum.NewThresholds(quorum.OptimalObjects(opts.Faults), opts.Faults)
	if err != nil {
		return nil, fmt.Errorf("robustatomic: %w", err)
	}
	reg := new(tcpnet.Registry)
	addrs := reg.Add(server.NewHosts(th.S)...)
	return newCluster(opts, deployment{th: th, addrs: addrs, reg: reg, dial: func() *tcpnet.Mux { return tcpnet.NewLinkMux(len(addrs), reg.Link(addrs)) }})
}

// NewSimCluster returns a client process of a cluster whose objects are the
// simulator's, reached over its scheduled link: the same Store, group commits
// and round engine, under a schedule — delivery order, virtual clock, which
// client goroutine runs — the simulation owns and a seed replays. Client
// goroutines must be the simulator's (sim.Go); Siblings share the objects.
func NewSimCluster(s *sim.Sim, opts Options) (*Cluster, error) {
	opts.defaults()
	th, err := quorum.NewThresholds(s.NumServers(), opts.Faults)
	if err != nil {
		return nil, fmt.Errorf("robustatomic: %w", err)
	}
	return newCluster(opts, deployment{th: th, addrs: s.Addrs(), reg: s.Registry(), wait: s.Await, dial: func() *tcpnet.Mux { return tcpnet.NewLinkMux(th.S, s.Link()) }})
}

// Connect attaches to a remote cluster of storage daemons (cmd/storaged);
// addrs[i] must serve object i+1 and len(addrs) must be 3t+1 for the
// configured fault budget.
func Connect(addrs []string, opts Options) (*Cluster, error) {
	opts.defaults()
	th, err := quorum.NewThresholds(len(addrs), opts.Faults)
	if err != nil {
		return nil, fmt.Errorf("robustatomic: %w", err)
	}
	return newCluster(opts, deployment{th: th, addrs: addrs, dial: func() *tcpnet.Mux { return tcpnet.NewMux(addrs) }})
}

// Sibling returns a second logical client process over the same running
// cluster: it shares the objects' addresses but
// carries its own WriterID, seed and transport — the in-process twin of a
// second machine running Connect, and like it refused its parent's
// WriterID. Faults and Readers are cluster-wide constants and must match:
// the identities of one deployment are numbered against one R. Closing a
// handle releases its own transport only.
func (c *Cluster) Sibling(opts Options) (*Cluster, error) {
	opts.defaults()
	if opts.WriterID == c.opts.WriterID {
		return nil, fmt.Errorf("%w: sibling WriterID %d is its parent's", ErrProcessID, opts.WriterID)
	}
	if opts.Faults != c.opts.Faults {
		return nil, fmt.Errorf("robustatomic: sibling fault budget %d != cluster's %d", opts.Faults, c.opts.Faults)
	}
	if opts.Readers != c.opts.Readers {
		return nil, fmt.Errorf("robustatomic: sibling reader count %d != cluster's %d", opts.Readers, c.opts.Readers)
	}
	return newCluster(opts, c.deployment)
}

// Close shuts down this handle's transport: its rounds fail from here on.
func (c *Cluster) Close() { c.mux.Close() }

// Faults returns t.
func (c *Cluster) Faults() int { return c.th.T }

// Objects returns S = 3t+1.
func (c *Cluster) Objects() int { return c.th.S }

// host returns the in-process object serving slot sid in this handle's view,
// for the fault-injection passthroughs below (remote clusters inject on the
// daemons instead: storaged -chaos, tcpnet.Server's own Set* methods).
func (c *Cluster) host(sid int) (*server.Host, error) {
	if c.reg == nil {
		return nil, fmt.Errorf("robustatomic: fault injection needs an in-process cluster")
	}
	addr, err := c.objectAddr(sid)
	if err != nil {
		return nil, err
	}
	if h := c.reg.Resolve(addr).Load(); h != nil {
		return h, nil
	}
	return nil, fmt.Errorf("robustatomic: object %d is down", sid)
}

// InjectFault makes in-process object sid Byzantine with a named behavior:
// "silent", "garbage", "stale", "equivocate", "falseelide" or "flaky".
func (c *Cluster) InjectFault(sid int, mode string) error {
	h, err := c.host(sid)
	if err != nil {
		return err
	}
	b, err := server.NamedBehavior(mode, rand.New(rand.NewSource(mixSeed(c.opts.Seed, int64(sid)))), 0.5)
	if err != nil {
		return fmt.Errorf("robustatomic: %w", err)
	}
	h.SetBehavior(b)
	return nil
}

// ClearFault restores in-process object sid to honest behavior, counting it
// back out of the fault budget (chaos windows end this way).
func (c *Cluster) ClearFault(sid int) error {
	h, err := c.host(sid)
	if err == nil {
		h.SetBehavior(nil)
	}
	return err
}

// Partition cuts in-process object sid off the network: its inbound messages
// are dropped before processing, so its state does not advance — the
// in-process twin of a network partition (and, since in-process objects have
// no disk, also of a kill -9 with preserved state: the object resumes
// exactly where it stopped when Heal reconnects it). At most t objects may
// be partitioned at a time for rounds to stay live.
func (c *Cluster) Partition(sid int) error { return c.setPartitioned(sid, true) }

// Heal reconnects a partitioned in-process object.
func (c *Cluster) Heal(sid int) error { return c.setPartitioned(sid, false) }

func (c *Cluster) setPartitioned(sid int, partitioned bool) error {
	h, err := c.host(sid)
	if err == nil {
		h.SetPartitioned(partitioned)
	}
	return err
}

// rounder builds the round executor for one process against register
// instance reg (0 is the default single register; the Store layer uses
// 1..Shards).
func (c *Cluster) rounder(proc types.ProcID, reg int) proto.Rounder {
	return c.observed(c.mux.Client(proc, reg))
}

// observed puts the RoundHook, if any, on r.
func (c *Cluster) observed(r proto.Rounder) proto.Rounder {
	if c.opts.RoundHook != nil {
		return proto.Observe(r, c.opts.RoundHook)
	}
	return r
}

// shardWriter builds the committer's writer handle for shard register reg.
// Where the link frames its requests, the writer's rounds run through the
// cluster-wide Combiner, so concurrent flushes of different shards merge
// into one batched frame per object; the RoundHook still observes each
// shard's logical rounds individually (the hook wraps above the Combiner).
func (c *Cluster) shardWriter(reg int) *Writer {
	if c.combiner == nil {
		return c.writerReg(reg)
	}
	return c.writerOn(c.observed(c.combiner.Rounder(reg)), reg)
}

// Writer is one of the register's writer handles. Its identity is the
// cluster's Options.WriterID. A single handle is single-goroutine, like
// every client of the model.
type Writer struct {
	c *Cluster
	w *core.Writer
	// traced is the handle's trace-capable round executor (nil unless
	// Options.Tracer is set); the Store layer points it at sampled OpTraces.
	traced *proto.Traced
}

// Writer returns this process's writer handle for the standalone register
// (create it once per process).
func (c *Cluster) Writer() *Writer { return c.writerReg(0) }

// writerReg builds the writer handle for register instance reg. It starts
// from no timestamp: every write learns the register's own (Modify's certified
// read, Write's proposal acknowledgements).
func (c *Cluster) writerReg(reg int) *Writer {
	return c.writerOn(c.rounder(types.WriterID(c.opts.WriterID), reg), reg)
}

// writerOn builds the writer handle for register instance reg over an
// already-constructed round executor.
func (c *Cluster) writerOn(rc proto.Rounder, reg int) *Writer {
	w := &Writer{c: c}
	if c.opts.Tracer != nil {
		w.traced = proto.Trace(rc, reg)
		rc = w.traced
	}
	w.w = core.NewWriterAt(rc, c.th, int64(c.opts.WriterID), types.TS{})
	return w
}

// useKnown shares a known-pair set with the register instance's other
// handles (the keyed Store: one set per shard).
func (w *Writer) useKnown(k *proto.Known) { w.w.UseKnown(k) }

// Write stores v (2 communication rounds — the optimistic proposal plus
// its commit — whenever no concurrent foreign writer interfered; bounded
// fallback rounds otherwise, see internal/core's adaptive write flow). A
// wrong-epoch redirect (the membership was reconfigured under the handle)
// triggers a transparent config refetch and retry (see retried); modifyPair
// reacts the same way. A write that leaves its pair open, refused or failed,
// is finished at its own timestamp by the retry, or else before the handle's
// next write. A proposal that never certified and that another write overtook
// is not put back at a fresh timestamp, as its pair may have been read: its
// retry fails with ErrWriteOvertaken, and the next write drops it.
func (w *Writer) Write(v string) error {
	_, err := w.retried(func() (types.Pair, error) { return types.Pair{}, w.w.Write(types.Value(v)) })
	return err
}

// modifyPair performs the certified read-modify-write every Store flush and
// configuration transition runs (3 or 4 rounds: certified regular read — 1
// round on a fast hit, else 2 — plus the 2-round write at the successor
// timestamp; 1 or 2 when fn elides the write).
func (w *Writer) modifyPair(fn func(cur types.Pair) (types.Value, types.Delta, error)) (types.Pair, error) {
	return w.retried(func() (types.Pair, error) { return w.w.Modify(fn) })
}

// retried runs one write operation, op, under the epoch redirect
// (retryEpoch). Every attempt first finishes the pair the handle's last
// operation put into circulation and did not see complete
// (core.Writer.Resume): before op has run, an earlier failed operation's —
// dropped if it never certified and was overtaken — and after, op's own, in
// which case op does not run again. One operation, one timestamp, however it
// failed; a failed one is finished, never re-applied at a fresh timestamp.
func (w *Writer) retried(op func() (types.Pair, error)) (p types.Pair, err error) {
	ran := false
	err = w.c.retryEpoch(func() (e error) {
		var resumed bool
		p, resumed, e = w.w.Resume()
		if resumed && ran || e != nil && !errors.Is(e, core.ErrOvertaken) {
			return e
		}
		ran = true
		p, e = op()
		return e
	})
	return p, err
}

// Reader is one of the register's R reader handles.
type Reader struct {
	c  *Cluster
	rd *core.Reader
	// traced is the handle's trace-capable round executor (nil unless
	// Options.Tracer is set); the Store layer points it at sampled OpTraces.
	traced *proto.Traced
}

// Reader returns reader handle idx (1-based, ≤ Options.Readers) of the
// standalone register. This process's own identity is WriterID+1; any other
// idx belongs to the process configured with WriterID idx-1, if there is
// one. A reader owns no register and issues no timestamp, so handles of one
// identity may read at once.
func (c *Cluster) Reader(idx int) (*Reader, error) {
	if idx < 1 || idx > c.opts.Readers {
		return nil, fmt.Errorf("robustatomic: reader index %d out of 1..%d", idx, c.opts.Readers)
	}
	return c.readerReg(idx, 0), nil
}

// readerID is this process's reader identity: process i reads as r_(i+1)
// (in range: newCluster checked WriterID).
func (c *Cluster) readerID() int { return c.opts.WriterID + 1 }

// readerReg builds reader handle idx for register instance reg.
func (c *Cluster) readerReg(idx, reg int) *Reader {
	rc := c.rounder(types.Reader(idx), reg)
	r := &Reader{c: c}
	if c.opts.Tracer != nil {
		r.traced = proto.Trace(rc, reg)
		rc = r.traced
	}
	r.rd = core.NewReader(rc, c.th, idx, c.opts.Readers)
	return r
}

// useKnown shares a known-pair set with the register instance's other
// handles (the keyed Store: one set per shard).
func (r *Reader) useKnown(k *proto.Known) { r.rd.UseKnown(k) }

// Read returns the register's current value (adaptive: 1 communication
// round on a stable register — 2t+1 objects agree and the write-back is
// elided because their replies certify the chosen value as completely
// written — 2 when only the decision round can tell; 4 rounds worst case
// under contention or Byzantine disturbance, which Proposition 1 proves
// optimal). The empty string is the initial value.
func (r *Reader) Read() (string, error) {
	p, err := r.readPair()
	return string(p.Val), err
}

// readPair performs the atomic read and returns the chosen timestamp-value
// pair (the Store layer keys its table cache by the timestamp). Like the
// Writer operations, a wrong-epoch redirect refetches the configuration and
// retries transparently.
func (r *Reader) readPair() (p types.Pair, err error) {
	err = r.c.retryEpoch(func() error {
		var e error
		p, e = r.rd.ReadPair()
		return e
	})
	return p, err
}

// elided reports whether the last readPair skipped its write-back (the
// query rounds certified the chosen pair as completely written).
func (r *Reader) elided() bool { return r.rd.Elided }
