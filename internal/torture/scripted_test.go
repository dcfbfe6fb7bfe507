package torture

// Store-level protocol points, scripted on the simulator: the whole client
// stack — Store, group commits, Combiner, round engine — under a schedule
// that names the instant a flush is held at or an ack is lost, with two more
// processes reading throughout and every history decided by the checker.

import (
	"errors"
	"slices"
	"testing"
	"time"

	"robustatomic"
	"robustatomic/internal/checker"
	"robustatomic/internal/config"
	"robustatomic/internal/obs"
	"robustatomic/internal/server"
	"robustatomic/internal/sim"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

// storePoint is one scripted execution: processes 0 and 1 write one key,
// processes 2 and 3 read it; process 4 is the operator's (operate). The key
// is the Store's, or — register set — the standalone register, written and
// read through each process's Writer and Reader.
type storePoint struct {
	t        *testing.T
	sim      *sim.Sim
	opts     robustatomic.Options
	root     *robustatomic.Cluster // process 3; the others are its Siblings
	stores   []*robustatomic.Store
	writers  []*robustatomic.Writer
	readers  []*robustatomic.Reader
	register bool
	rec      recorder
	errs     [4]error // each writing process's last failed write
}

const pointKey = "k"

func newStorePoint(t *testing.T, seed int64) *storePoint {
	p := &storePoint{t: t, sim: sim.New(sim.Config{Servers: 4}), stores: make([]*robustatomic.Store, 4),
		writers: make([]*robustatomic.Writer, 4), readers: make([]*robustatomic.Reader, 4)}
	t.Cleanup(p.sim.Close)
	p.sim.Seed(seed)
	p.sim.SetLatency(0, 200*time.Microsecond)
	p.opts = robustatomic.Options{Faults: 1, Readers: 5, WriterID: 3, Seed: seed}
	var err error
	if p.root, err = robustatomic.NewSimCluster(p.sim, p.opts); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.root.Close)
	for proc := range p.stores {
		p.start(proc)
	}
	return p
}

// start starts process proc: a client process with that identity and nothing
// remembered. It returns the process's Close.
func (p *storePoint) start(proc int) (stop func()) {
	c := p.root
	if proc != p.opts.WriterID {
		opts := p.opts
		opts.WriterID = proc
		var err error
		if c, err = p.root.Sibling(opts); err != nil {
			p.t.Fatal(err)
		}
		p.t.Cleanup(c.Close)
	}
	st, err := c.NewStore(robustatomic.StoreOptions{Shards: 1})
	if err != nil {
		p.t.Fatal(err)
	}
	p.stores[proc], p.writers[proc] = st, c.Writer()
	if p.readers[proc], err = c.Reader(proc + 1); err != nil {
		p.t.Fatal(err)
	}
	return c.Close
}

// operate starts the operator process running op; *done reports it over.
func (p *storePoint) operate(op func(c *robustatomic.Cluster)) (done *bool) {
	opts := p.opts
	opts.WriterID = operatorID
	c, err := p.root.Sibling(opts)
	if err != nil {
		p.t.Fatal(err)
	}
	p.t.Cleanup(c.Close)
	done = new(bool)
	p.sim.Go(func() {
		op(c)
		*done = true
	})
	return done
}

const operatorID = 4

// put starts a client of process proc putting val under the point's key (see
// putKey).
func (p *storePoint) put(proc int, val string) (done, ok *bool) { return p.putKey(proc, pointKey, val) }

// putKey starts a client of process proc putting val under key; *done reports
// it over and whether it succeeded (a failed Put stays pending in the history:
// the process's next write may still finish its pair).
func (p *storePoint) putKey(proc int, key, val string) (done, ok *bool) {
	done, ok = new(bool), new(bool)
	p.sim.Go(func() {
		id := p.rec.invoke(key, types.WriterID(10+proc), checker.OpWrite, types.Value(val))
		write := func() error { return p.stores[proc].Put(key, val) }
		if p.register {
			write = func() error { return p.writers[proc].Write(val) }
		}
		if err := write(); err != nil {
			p.rec.abandon(id)
			p.errs[proc] = err
		} else {
			p.rec.respond(id, "")
			*ok = true
		}
		*done = true
	})
	return done, ok
}

// gets starts a client of process proc reading the point's key n times (see
// getsKey).
func (p *storePoint) gets(proc, n int) (got *string) { return p.getsKey(proc, pointKey, n) }

// getsKey starts a client of process proc reading key n times; *got is the
// last value read.
func (p *storePoint) getsKey(proc int, key string, n int) (got *string) {
	got = new(string)
	p.sim.Go(func() {
		for i := 0; i < n; i++ {
			id := p.rec.invoke(key, types.Reader(proc), checker.OpRead, "")
			read := func() (string, error) { return p.stores[proc].Get(key) }
			if p.register {
				read = p.readers[proc].Read
			}
			v, err := read()
			if err != nil {
				p.t.Errorf("get by process %d: %v", proc, err)
				p.rec.abandon(id)
				return
			}
			p.rec.respond(id, types.Value(v))
			*got = v
		}
	})
	return got
}

// run lets the clients run until holds (nil: to completion).
func (p *storePoint) run(until func() bool) {
	p.t.Helper()
	if err := p.sim.Run(until); err != nil {
		p.t.Fatal(err)
	}
}

// settle reads the key once more per reading process, sequentially, and
// decides the history.
func (p *storePoint) settle(seed int64) {
	p.t.Helper()
	for proc := 2; proc < len(p.stores); proc++ {
		p.gets(proc, 1)
		p.run(nil)
	}
	if _, err := checkAll(p.rec.histories(), checker.Budget{MaxNodes: 2_000_000, Deadline: 30 * time.Second}); err != nil {
		p.t.Fatalf("seed %d: %v", seed, err)
	}
}

// ackEater is an object that does everything a correct one does, except
// that process 0 never hears its WRITE acknowledged.
type ackEater struct{ eaten *int }

func (b ackEater) Reply(st *server.Store, from types.ProcID, m types.Message) (types.Message, bool) {
	if from == types.WriterID(0) && m.Kind == types.MsgWrite {
		*b.eaten++
		return st.Handle(from, m), false
	}
	return st.Handle(from, m), true
}

func pointSeeds() int64 {
	if testing.Short() {
		return 20
	}
	return 200
}

// TestScriptedStoreFlushRebased: process 0's flush has read the register
// (READ1, its cached table current) and posted its PREWRITE when a foreign
// flush of the same shard runs to completion; only then does the PREWRITE
// reach anyone.
func TestScriptedStoreFlushRebased(t *testing.T) {
	for seed := int64(1); seed <= pointSeeds(); seed++ {
		p := newStorePoint(t, seed)
		p.put(0, "a0")
		p.run(nil)
		held := false
		p.sim.Hold(func(m sim.Message) bool { // process 0's flush, at its PREWRITE
			at := m.Req.From == types.WriterID(0) && !m.Reply && len(m.Req.Subs) > 0 && m.Req.Subs[0].Msg.Kind == types.MsgPreWrite
			held = held || at
			return at
		})
		aDone, aOK := p.put(0, "a1")
		p.run(func() bool { return held })
		bDone, bOK := p.put(1, "b1")
		p.gets(2, 3)
		p.gets(3, 3)
		p.run(func() bool { return *bDone })
		if !*bOK || *aDone {
			t.Fatalf("seed %d: the foreign flush (ok %v) did not land inside the held one (over %v)", seed, *bOK, *aDone)
		}
		p.sim.Hold(nil)
		p.run(nil)
		if !*aOK {
			t.Fatalf("seed %d: the held flush failed", seed)
		}
		p.settle(seed)
	}
}

// TestScriptedStoreAckLost is the Store-level half of ROADMAP 1b: process 0's
// write reaches its WRITE quorum and every ack is lost, so the Put fails at
// its round's deadline with the write in place, beside a foreign writer and
// two readers. The process's next write finishes the failed pair — its
// PREWRITE and WRITE again, at the failed pair's timestamp — before it issues
// one of its own, and never puts the failed value back at a fresh one. For a
// Store flush and a standalone Writer.Write.
func TestScriptedStoreAckLost(t *testing.T) {
	for name, register := range map[string]bool{"store": false, "register": true} {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= pointSeeds(); seed++ {
				ackLost(t, seed, register)
			}
		})
	}
}

func ackLost(t *testing.T, seed int64, register bool) {
	p := newStorePoint(t, seed)
	p.register = register
	inst := 1 // the Store's one shard
	if register {
		inst = 0
	}
	p.put(0, "a0")
	p.run(nil)
	sent := p.watch(inst)
	lost := 0
	for _, h := range p.sim.Hosts() {
		h.SetBehavior(ackEater{&lost})
	}
	aDone, aOK := p.put(0, "a1")
	p.put(1, "b1")
	p.gets(2, 3)
	p.gets(3, 3)
	p.run(func() bool { return *aDone })
	if *aOK || lost < 3 {
		t.Fatalf("seed %d: the write whose acks were lost (%d of them) succeeded: %v", seed, lost, *aOK)
	}
	for _, h := range p.sim.Hosts() {
		h.SetBehavior(nil)
	}
	failed, mark := lastWrite(*sent), len(*sent)
	retry, retried := p.put(0, "a2")
	p.put(1, "b2")
	p.gets(2, 3)
	p.gets(3, 3)
	p.run(nil)
	if !*retry || !*retried {
		t.Fatalf("seed %d: the write after the lost one failed: %v", seed, p.errs[0])
	}
	p.settle(seed)
	// A flush issues one timestamp; a Write may issue two (its proposal, then
	// its successor under interference).
	if fresh, ok := finishedFirst((*sent)[mark:], failed); !ok || len(fresh) == 0 || !register && len(fresh) != 1 {
		t.Fatalf("seed %d: after the write at %v failed, the next one sent %v (finished it first: %v)", seed, failed, (*sent)[mark:], ok)
	}
}

// TestScriptedStoreAckLostRestart is the other hypothesis of ROADMAP 1b: the
// process whose flush reached its WRITE quorum and lost every ack DIES with
// its Put failed, and a fresh process with the same identity — nothing
// remembered, its shard recovered by a read — puts again.
func TestScriptedStoreAckLostRestart(t *testing.T) {
	for seed := int64(1); seed <= pointSeeds(); seed++ {
		p := newStorePoint(t, seed)
		stop := p.start(0)
		p.put(0, "a0")
		p.run(nil)
		lost := 0
		for _, h := range p.sim.Hosts() {
			h.SetBehavior(ackEater{&lost})
		}
		aDone, aOK := p.put(0, "a1")
		p.put(1, "b1")
		p.gets(2, 3)
		p.gets(3, 3)
		p.run(func() bool { return *aDone })
		if *aOK || lost < 3 {
			t.Fatalf("seed %d: the flush whose acks were lost (%d of them) succeeded: %v", seed, lost, *aOK)
		}
		for _, h := range p.sim.Hosts() {
			h.SetBehavior(nil)
		}
		stop()
		p.start(0)
		again, ok := p.put(0, "a2")
		p.put(1, "b2")
		p.gets(2, 3)
		p.gets(3, 3)
		p.run(nil)
		if !*again || !*ok {
			t.Fatalf("seed %d: the restarted process's Put failed", seed)
		}
		p.settle(seed)
	}
}

// TestScriptedStoreFailedPutStaysFailed: process 0's Put of a1 fails with its
// write in place (every WRITE ack lost); a reader returns a1, process 1's Put
// of b1 lands and a reader returns it; then process 0 puts a sibling key of
// the same shard. That flush finishes the failed pair at its own timestamp —
// below b1's — before its READ1, and issues one fresh timestamp, for a table
// rebased onto b1's: a later read of the key never returns a1 again.
func TestScriptedStoreFailedPutStaysFailed(t *testing.T) {
	for seed := int64(1); seed <= pointSeeds(); seed++ {
		p := newStorePoint(t, seed)
		p.put(0, "a0")
		p.run(nil)
		sent := p.watch(1)
		lost := 0
		for _, h := range p.sim.Hosts() {
			h.SetBehavior(ackEater{&lost})
		}
		_, aOK := p.put(0, "a1")
		p.run(nil)
		if *aOK || lost < 3 {
			t.Fatalf("seed %d: the Put whose acks were lost (%d of them) succeeded: %v", seed, lost, *aOK)
		}
		for _, h := range p.sim.Hosts() {
			h.SetBehavior(nil)
		}
		failed := lastWrite(*sent)
		got := p.gets(2, 1)
		p.run(nil)
		_, bOK := p.put(1, "b1")
		p.run(nil)
		got2 := p.gets(2, 1)
		p.run(nil)
		if *got != "a1" || !*bOK || *got2 != "b1" {
			t.Fatalf("seed %d: read %q, foreign Put ok %v, read %q; want a1, true, b1", seed, *got, *bOK, *got2)
		}
		mark := len(*sent)
		_, ok := p.putKey(0, "k2", "x")
		p.run(nil)
		if !*ok {
			t.Fatalf("seed %d: the sibling Put failed: %v", seed, p.errs[0])
		}
		p.gets(3, 1)
		p.getsKey(2, "k2", 1)
		p.run(nil)
		p.settle(seed)
		if fresh, ok := finishedFirst((*sent)[mark:], failed); !ok || len(fresh) != 1 {
			t.Fatalf("seed %d: after the flush at %v failed, the next one sent %v (finished it first: %v)", seed, failed, (*sent)[mark:], ok)
		}
	}
}

// TestScriptedStoreNewcomerUnseeded is the named point "config decided,
// newcomer unseeded": a Move's configuration is decided cluster-wide and every
// attempt to seed it into the newcomer is lost, so Move returns
// ErrNewcomerUnseeded — after three round deadlines and two pauses of the
// LINK's clock — and the newcomer is a member whose epoch gate never
// activated: it accepts the stale-epoch traffic of clients that have not
// refetched. Two writers and two readers keep operating throughout;
// ReseedConfig heals.
func TestScriptedStoreNewcomerUnseeded(t *testing.T) {
	for seed := int64(1); seed <= pointSeeds(); seed++ {
		p := newStorePoint(t, seed)
		p.put(0, "a0")
		p.run(nil)
		newcomer, seeded := p.sim.AddHost(2)
		p.sim.Hold(func(m sim.Message) bool { return m.Addr == newcomer && m.Req.Reg == config.Reg })
		var moveErr error
		moved := p.operate(func(c *robustatomic.Cluster) { _, _, moveErr = c.Move(2, newcomer, 1) })
		p.put(0, "a1")
		p.put(1, "b1")
		p.gets(2, 3)
		p.gets(3, 3)
		p.run(func() bool { return *moved })
		if !errors.Is(moveErr, robustatomic.ErrNewcomerUnseeded) || seeded.Epoch() != 0 {
			t.Fatalf("seed %d: Move with every config seed lost = %v, newcomer at epoch %d", seed, moveErr, seeded.Epoch())
		}
		p.sim.Hosts()[1].SetPartitioned(true) // the departed object dies for real
		p.put(0, "a2")
		p.put(1, "b2")
		p.gets(2, 3)
		p.gets(3, 3)
		p.run(nil)
		p.sim.Hold(nil) // the lost seeds were PREWRITEs: late, they activate nothing
		var reseedErr error
		p.operate(func(c *robustatomic.Cluster) { reseedErr = c.ReseedConfig(newcomer) })
		p.put(0, "a3")
		p.gets(2, 2)
		p.run(nil)
		if reseedErr != nil || seeded.Epoch() != 2 {
			t.Fatalf("seed %d: reseed = %v, newcomer at epoch %d, want 2", seed, reseedErr, seeded.Epoch())
		}
		p.settle(seed)
	}
}

// TestScriptedStoreTransferEpochUnsealed is the named point "register
// transferred, epoch unsealed": a Move has transferred the shard to the
// newcomer and not yet written the configuration when a foreign flush runs to
// completion on the OLD membership — the newcomer never hears of it — and then
// the Move is decided and the departed object dies, with two readers reading
// throughout.
func TestScriptedStoreTransferEpochUnsealed(t *testing.T) { transferEpochUnsealed(t, false) }

// TestScriptedStoreBareQuorumWindow pins the adversary of ROADMAP residual 3b
// (DESIGN.md "Handoff safety"): the same point with ONE object — the fault
// budget, t = 1 — cut off while the foreign flush runs. The flush completes on
// the three others, one of which then departs: of the new membership only two
// objects hold its pair, prewritten on two where every decision assumes 2t+1,
// and a read whose quorum shows the pair once cannot decide — the Get burns
// its round deadline (wait-freedom, not atomicity, is what the window costs:
// every history stays checker-clean).
func TestScriptedStoreBareQuorumWindow(t *testing.T) {
	t.Skip("ROADMAP 3b: 11 Gets over seeds 1..200 fail with a round timeout (AREAD1/AREAD2 unsatisfied) once the departed object is gone; sealing the outgoing epoch before the transfer is open")
	transferEpochUnsealed(t, true)
}

func transferEpochUnsealed(t *testing.T, oneCutOff bool) {
	for seed := int64(1); seed <= pointSeeds(); seed++ {
		p := newStorePoint(t, seed)
		p.put(0, "a0")
		p.run(nil)
		newcomer, _ := p.sim.AddHost(2)
		held := false
		p.sim.Hold(func(m sim.Message) bool { // the operator's config write, at its first round
			at := m.Req.From == types.WriterID(operatorID) && m.Req.Reg == config.Reg && !m.Reply
			held = held || at
			return at
		})
		var moveErr error
		moved := p.operate(func(c *robustatomic.Cluster) { _, _, moveErr = c.Move(2, newcomer, 1) })
		p.run(func() bool { return held })
		p.sim.Hosts()[3].SetPartitioned(oneCutOff)
		bDone, bOK := p.put(1, "b1")
		p.gets(2, 3)
		p.gets(3, 3)
		p.run(func() bool { return *bDone })
		if !*bOK || *moved {
			t.Fatalf("seed %d: the foreign flush (ok %v) did not land between transfer and config write (move over: %v)", seed, *bOK, *moved)
		}
		p.sim.Hold(nil)
		p.run(nil)
		if moveErr != nil {
			t.Fatalf("seed %d: Move: %v", seed, moveErr)
		}
		p.sim.Hosts()[1].SetPartitioned(true) // the departed object dies for real
		p.sim.Hosts()[3].SetPartitioned(false)
		p.put(0, "a1")
		p.gets(2, 3)
		p.gets(3, 3)
		p.run(nil)
		p.settle(seed)
	}
}

// counter returns how far the named process-wide counter has moved since.
func counter(name string) func() int64 {
	c := obs.Default.Counter(name)
	base := c.Value()
	return func() int64 { return c.Value() - base }
}

// writeLoser is an object whose link loses process 0's WRITE frames: they are
// neither applied nor answered. (sim.Hold cannot hold them for this point: a
// lane is FIFO, and the Get's frames travel the lanes the flush's do.)
type writeLoser struct{ lost *int }

func (b writeLoser) Reply(st *server.Store, from types.ProcID, m types.Message) (types.Message, bool) {
	if from == types.WriterID(0) && m.Kind == types.MsgWrite {
		*b.lost++
		return types.Message{}, false
	}
	return st.Handle(from, m), true
}

// TestScriptedStoreGetOverlapsOwnFlush: process 0's flush has completed its
// PREWRITE — every object now holds the new table in pw — and its WRITE
// frames never arrive, when a Get of the same process reads the shard. The
// process holds that table (it is writing it) and said so the moment it
// issued the timestamp, so every READ reply elides both slots: no object
// ships a table back to the process that just sent it. (Seeded only after
// the WRITE round, as before this point was scripted, each object that took
// the PREWRITE shipped its 36 KB on bigtable_read, to ≈ 1 Get in 30.)
func TestScriptedStoreGetOverlapsOwnFlush(t *testing.T) {
	for seed := int64(1); seed <= pointSeeds(); seed++ {
		p := newStorePoint(t, seed)
		p.put(0, "a0")
		p.gets(0, 1) // the handle's first read runs both query rounds; not this one
		p.run(nil)
		lost := 0
		for _, h := range p.sim.Hosts() {
			h.SetBehavior(writeLoser{&lost})
		}
		aDone, aOK := p.put(0, "a1")
		p.run(func() bool { return lost == 4 })
		sent, elided := counter("server_read_values_sent_total"), counter("server_read_values_elided_total")
		got := new(string)
		p.sim.Go(func() {
			id := p.rec.invoke(pointKey, types.Reader(0), checker.OpRead, "")
			v, err := p.stores[0].Get(pointKey)
			if err != nil {
				t.Errorf("seed %d: get inside the process's own flush: %v", seed, err)
			}
			p.rec.respond(id, types.Value(v))
			*got = v
		})
		p.run(func() bool { return *got != "" })
		if *aDone {
			t.Fatalf("seed %d: the flush was over before the Get ran", seed)
		}
		if sent() != 0 || elided() == 0 {
			t.Fatalf("seed %d: the objects shipped %d values to the process that wrote them (%d elided)", seed, sent(), elided())
		}
		if *got != "a0" && *got != "a1" {
			t.Fatalf("seed %d: Get = %q, want the table before the flush or the one in flight", seed, *got)
		}
		for _, h := range p.sim.Hosts() {
			h.SetBehavior(nil)
		}
		p.run(func() bool { return *aDone }) // the flush fails at its WRITE round's deadline
		if *aOK {
			t.Fatalf("seed %d: the flush whose WRITE frames were lost succeeded", seed)
		}
		retry, retried := p.put(0, "a2") // and the next flush finishes its pair first
		p.gets(2, 3)
		p.gets(3, 3)
		p.run(nil)
		if !*retry || !*retried {
			t.Fatalf("seed %d: the flush retrying the lost mutation failed", seed)
		}
		p.settle(seed)
	}
}

// TestScriptedStoreCutOffCatchesUp: object 4 is cut off for one flush, so it
// holds neither the pair the next flush's edit derives from nor, until then,
// anything to promote. Reconnected — and, object 1 being cut off in its turn,
// heard in every round of that flush — it answers the PREWRITE's edit `need
// value`, is sent the table in full inside that round, and ends the flush
// holding what everyone holds: a round never burns its deadline on a
// refusal, two readers read throughout, and at quiesce no timestamp holds
// two values anywhere (doctor): what the objects spliced is what the others
// were sent.
func TestScriptedStoreCutOffCatchesUp(t *testing.T) {
	for seed := int64(1); seed <= pointSeeds(); seed++ {
		p := newStorePoint(t, seed)
		p.put(0, "a0")
		p.run(nil)
		hosts := p.sim.Hosts()
		hosts[3].SetPartitioned(true)
		p.put(0, "a1")
		p.gets(2, 2)
		p.gets(3, 2)
		p.run(nil)
		p.sim.Drain()
		behind := hosts[3].Store(1).Reg(types.WriterReg)
		hosts[3].SetPartitioned(false)
		hosts[0].SetPartitioned(true)
		timeouts := counter("tcpnet_round_timeout_total")
		_, ok := p.put(0, "a2")
		p.gets(2, 2)
		p.gets(3, 2)
		p.run(nil)
		if !*ok || timeouts() != 0 {
			t.Fatalf("seed %d: the flush that had to hear the lagging object: ok %v, %d round timeouts", seed, *ok, timeouts())
		}
		head := hosts[1].Store(1).Reg(types.WriterReg)
		if got := hosts[3].Store(1).Reg(types.WriterReg); got.W != head.W || got.PW != head.PW || got.W.TS == behind.W.TS {
			t.Fatalf("seed %d: the reconnected object holds %v / %v after the first flush that heard it (it held %v); the others hold %v", seed, got.PW.TS, got.W.TS, behind.W.TS, head.W.TS)
		}
		hosts[0].SetPartitioned(false)
		p.put(1, "b3")
		p.put(0, "a3")
		p.gets(2, 2)
		p.gets(3, 2)
		p.run(nil)
		p.settle(seed)
		var rep robustatomic.DoctorReport
		p.operate(func(c *robustatomic.Cluster) { rep = c.Doctor(1) })
		p.run(nil)
		if len(rep.Diverged)+len(rep.Skipped) > 0 {
			t.Fatalf("seed %d: doctor at quiesce: %d diverged, %d skipped: %+v", seed, len(rep.Diverged), len(rep.Skipped), rep)
		}
	}
}

// TestScriptedEpochRetryFinishesItsPair is ROADMAP 1b's resurrect, scripted:
// process 0's write has completed its PREWRITE, and its WRITE has reached
// object 1 alone, when a Leave of slot 4 completes — so the objects refuse the
// rest of it for a stale epoch. Before the held frames go, a reader returns
// the prewritten pair (object 1 holds it written, so the decision round
// must) and process 1's write overwrites it. The epoch retry must finish the
// pair process 0 issued — every PREWRITE and WRITE it sends carries one
// timestamp — never put the value back at a fresh one, and the history must
// stay atomic. For a Store flush (core.Writer.Modify) and a standalone
// Writer.Write.
func TestScriptedEpochRetryFinishesItsPair(t *testing.T) {
	for name, register := range map[string]bool{"store": false, "register": true} {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= pointSeeds(); seed++ {
				epochRetryFinishesItsPair(t, seed, register)
			}
		})
	}
}

func epochRetryFinishesItsPair(t *testing.T, seed int64, register bool) {
	p := newStorePoint(t, seed)
	p.register = register
	inst := 1 // the Store's one shard
	if register {
		inst = 0
	}
	p.put(0, "a0")
	p.run(nil)
	p.sim.Drain()
	var issued []types.TS
	prewrites := map[uint64]bool{} // by request id
	holding, held := true, false
	p.sim.Hold(func(m sim.Message) bool {
		w, ok := writeOf(m, inst)
		if !ok {
			return false
		}
		if !slices.Contains(issued, w.Pair.TS) {
			issued = append(issued, w.Pair.TS)
		}
		if w.Kind == types.MsgPreWrite {
			prewrites[m.Req.ID] = true
		}
		at := holding && w.Kind == types.MsgWrite && m.Sid != 1
		held = held || at
		return at
	})
	aDone, aOK := p.put(0, "a1")
	p.run(func() bool {
		return held && p.sim.Hosts()[0].Store(inst).Reg(types.WriterReg).W.TS == issued[0]
	})
	var leaveErr error
	left := p.operate(func(c *robustatomic.Cluster) { _, leaveErr = c.Leave(4) })
	p.run(func() bool { return *left })
	if leaveErr != nil {
		t.Fatalf("seed %d: Leave: %v", seed, leaveErr)
	}
	got := p.gets(2, 1)
	p.run(func() bool { return *got != "" })
	if *got != "a1" {
		t.Fatalf("seed %d: the reader returned %q, not the prewritten pair", seed, *got)
	}
	bDone, bOK := p.overtake()
	p.run(func() bool { return *bDone })
	if !*bOK || *aDone {
		t.Fatalf("seed %d: the foreign write (ok %v, %v) did not land inside the held one (over %v)", seed, *bOK, p.errs[1], *aDone)
	}
	holding = false
	p.run(nil)
	if !*aOK || len(issued) != 1 || len(prewrites) <= 4 {
		t.Fatalf("seed %d: the retried write (ok %v, %d PREWRITE requests) issued timestamps %v, want one", seed, *aOK, len(prewrites), issued)
	}
	p.settle(seed)
}

// TestScriptedEpochRetryUncertified: process 0's standalone write has posted
// its PREWRITE, objects 1 and 2 have taken it — t+1 of them, so the proposal
// is readable — and a Leave of slot 4 completes before it reaches the others,
// which refuse it for a stale epoch: the proposal never certified. Overtaken,
// process 1's write lands before the held frames go, and the retry must not
// put the value back at a fresh timestamp: the write fails with
// ErrWriteOvertaken. Not overtaken, the retry finishes the proposal. Either
// way process 0 issues one timestamp and the history stays atomic.
func TestScriptedEpochRetryUncertified(t *testing.T) {
	for name, overtaken := range map[string]bool{"overtaken": true, "alone": false} {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= pointSeeds(); seed++ {
				epochRetryUncertified(t, seed, overtaken)
			}
		})
	}
}

func epochRetryUncertified(t *testing.T, seed int64, overtaken bool) {
	p := newStorePoint(t, seed)
	p.register = true
	p.put(0, "a0")
	p.run(nil)
	p.sim.Drain()
	var issued []types.TS
	holding := true
	p.sim.Hold(func(m sim.Message) bool {
		w, ok := writeOf(m, 0)
		if !ok {
			return false
		}
		if !slices.Contains(issued, w.Pair.TS) {
			issued = append(issued, w.Pair.TS)
		}
		return holding && m.Sid > 2
	})
	aDone, aOK := p.put(0, "a1")
	p.run(func() bool {
		hosts := p.sim.Hosts()
		return len(issued) > 0 && hosts[0].Store(0).Reg(types.WriterReg).PW.TS == issued[0] &&
			hosts[1].Store(0).Reg(types.WriterReg).PW.TS == issued[0]
	})
	var leaveErr error
	left := p.operate(func(c *robustatomic.Cluster) { _, leaveErr = c.Leave(4) })
	p.run(func() bool { return *left })
	if leaveErr != nil {
		t.Fatalf("seed %d: Leave: %v", seed, leaveErr)
	}
	got := p.gets(2, 1)
	p.run(func() bool { return *got != "" })
	if overtaken {
		bDone, bOK := p.overtake()
		p.run(func() bool { return *bDone })
		if !*bOK || *aDone {
			t.Fatalf("seed %d: the foreign write (ok %v) did not land inside the held one (over %v)", seed, *bOK, *aDone)
		}
	}
	holding = false
	p.run(nil)
	if len(issued) != 1 {
		t.Fatalf("seed %d: the retried write (ok %v, %v) issued timestamps %v, want one", seed, *aOK, p.errs[0], issued)
	}
	if overtaken && (*aOK || !errors.Is(p.errs[0], robustatomic.ErrWriteOvertaken)) {
		t.Fatalf("seed %d: the overtaken retry (timestamp %v, read %q): ok %v, %v", seed, issued[0], *got, *aOK, p.errs[0])
	}
	if !overtaken && !*aOK {
		t.Fatalf("seed %d: the retry alone failed: %v", seed, p.errs[0])
	}
	p.settle(seed)
}

// TestScriptedWriterLifetimes: process 0 writes through its standalone Writer
// and dies, and a new process with its identity — a fresh handle, nothing
// remembered — writes again. Its first proposal is the timestamp the earlier
// lifetime wrote at, which the objects report and must not certify: they keep
// the first value a timestamp carried, so the new one would be lost.
func TestScriptedWriterLifetimes(t *testing.T) {
	for seed := int64(1); seed <= pointSeeds(); seed++ {
		p := newStorePoint(t, seed)
		p.register = true
		stop := p.start(0)
		p.put(0, "a0")
		p.run(nil)
		stop()
		p.start(0)
		_, ok := p.put(0, "a1")
		p.gets(2, 2)
		p.run(nil)
		if !*ok {
			t.Fatalf("seed %d: the second lifetime's write failed: %v", seed, p.errs[0])
		}
		p.settle(seed)
	}
}

// overtake starts process 1's write of b1 once a read of the process has
// adopted the configuration a Leave just decided: refused for a stale epoch,
// the standalone write's own proposal would be uncertified, and it would fail
// overtaken instead of landing.
func (p *storePoint) overtake() (done, ok *bool) {
	got := p.gets(1, 1)
	p.run(func() bool { return *got != "" })
	return p.put(1, "b1")
}

// requestOf returns the request process 0 sends register instance inst in m,
// if m carries one.
func requestOf(m sim.Message, inst int) (types.Message, bool) {
	if m.Reply || m.Req.From != types.WriterID(0) {
		return types.Message{}, false
	}
	if len(m.Req.Subs) > 0 {
		i := slices.IndexFunc(m.Req.Subs, func(s wire.SubReq) bool { return s.Reg == inst })
		if i < 0 {
			return types.Message{}, false
		}
		return m.Req.Subs[i].Msg, true
	}
	return m.Req.Msg, m.Req.Reg == inst
}

// writeOf returns the write process 0 sends register instance inst in m, if
// m is such a request.
func writeOf(m sim.Message, inst int) (types.Message, bool) {
	w, ok := requestOf(m, inst)
	return w, ok && isWrite(w)
}

func isWrite(m types.Message) bool { return m.Kind == types.MsgPreWrite || m.Kind == types.MsgWrite }

// watch logs, holding nothing, every request process 0 sends register
// instance inst, once per object, in the order the requests reach the head of
// their lanes — per object, the order they were sent.
func (p *storePoint) watch(inst int) *[]types.Message {
	type at struct {
		sid int
		id  uint64
	}
	sent, seen := new([]types.Message), map[at]bool{}
	p.sim.Hold(func(m sim.Message) bool {
		if r, ok := requestOf(m, inst); ok && !seen[at{m.Sid, m.Req.ID}] {
			seen[at{m.Sid, m.Req.ID}] = true
			*sent = append(*sent, r)
		}
		return false
	})
	return sent
}

// lastWrite returns the timestamp of the last write in sent.
func lastWrite(sent []types.Message) types.TS {
	for i := len(sent) - 1; i >= 0; i-- {
		if sent[i].Kind == types.MsgWrite {
			return sent[i].Pair.TS
		}
	}
	return types.TS{}
}

// finishedFirst reports whether the requests sent by one write operation
// began by finishing the pair at failed: its PREWRITE first, and a WRITE of it
// before any READ1 or any write at another timestamp. fresh lists the other
// timestamps the operation's writes carried.
func finishedFirst(sent []types.Message, failed types.TS) (fresh []types.TS, ok bool) {
	for i, m := range sent {
		switch {
		case i == 0 && (m.Kind != types.MsgPreWrite || m.Pair.TS != failed):
			return nil, false
		case isWrite(m) && m.Pair.TS == failed:
			ok = ok || m.Kind == types.MsgWrite
		case !ok:
			return nil, false
		case isWrite(m) && !slices.Contains(fresh, m.Pair.TS):
			fresh = append(fresh, m.Pair.TS)
		}
	}
	return fresh, ok
}
