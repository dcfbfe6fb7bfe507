package server

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"robustatomic/internal/config"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

// fakeLog is a Persister that records what Host appends and checks, at the
// moment of each Write, that the request it is handed has not been applied
// yet (log first, apply second).
type fakeLog struct {
	t    *testing.T
	host *Host
	reqs []wire.Request
	fail bool // refuse every Write
}

func (l *fakeLog) Recover() (map[int]*Store, error) { return map[int]*Store{}, nil }
func (l *fakeLog) WALSize() int64                   { return int64(len(l.reqs)) }
func (l *fakeLog) Rotate() (uint64, error)          { return 1, nil }
func (l *fakeLog) Commit(uint64, []byte) error      { return nil }
func (l *fakeLog) Close() error                     { return nil }

func (l *fakeLog) Sync() error { return nil }
func (l *fakeLog) Write(req wire.Request) error {
	if l.fail {
		return errors.New("disk full")
	}
	subs := req.Subs
	if len(subs) == 0 {
		subs = []wire.SubReq{{Reg: req.Reg, Msg: req.Msg}}
	}
	l.host.mu.Lock()
	for _, sub := range subs {
		if sub.Reg < 0 || sub.Reg >= MaxRegisters {
			l.t.Errorf("logged a request for out-of-range instance %d", sub.Reg)
			continue
		}
		if st := l.host.stores[sub.Reg]; st != nil && applied(st, types.WriterReg, sub.Msg) {
			l.t.Errorf("request %v for instance %d was applied before it was logged", sub.Msg.Kind, sub.Reg)
		}
	}
	l.host.mu.Unlock()
	l.reqs = append(l.reqs, req)
	return nil
}

// applied reports whether st already holds a pair m writes (the test issues
// every mutating message at a timestamp of its own).
func applied(st *Store, id types.RegID, m types.Message) bool {
	if m.Kind == types.MsgMux {
		for _, sub := range m.Sub {
			if applied(st, sub.Reg, sub.Msg) {
				return true
			}
		}
		return false
	}
	if !Mutates(m) {
		return false
	}
	rs := st.Reg(id)
	return rs.PW.TS == m.Pair.TS || rs.W.TS == m.Pair.TS
}

// behaviors builds each injectable behavior afresh, seeded, so that two
// hosts under comparison misbehave identically.
var behaviors = map[string]func() Behavior{
	"honest":     func() Behavior { return nil },
	"silent":     func() Behavior { return Silent{} },
	"garbage":    func() Behavior { return Garbage{Level: 1 << 30, Val: "forged"} },
	"stale":      func() Behavior { return &Stale{} },
	"equivocate": func() Behavior { return Equivocate{Readers: &Stale{}} },
	"falseelide": func() Behavior { return &FalseElide{} },
	"falseneed":  func() Behavior { return FalseNeed{} },
	"falseack":   func() Behavior { return FalseAck{} },
	"flaky":      func() Behavior { return Flaky{Rand: rand.New(rand.NewSource(5)), DropProb: 0.5} },
}

// chaos installs one fault mix (seeded) on a host.
var chaos = map[string]func(h *Host){
	"none":      func(h *Host) {},
	"partition": func(h *Host) { h.SetPartitioned(true) },
	"netem":     func(h *Host) { h.SetNetem(rand.New(rand.NewSource(7)), 0.3, 0.5, 3*time.Millisecond) },
	// Sub-replies lost out of a batch: a Flaky around the behavior, which Serve
	// asks once per sub-request.
	"batch": func(h *Host) {
		h.SetBehavior(Flaky{Inner: h.behavior, Rand: rand.New(rand.NewSource(9)), DropProb: 0.4})
	},
}

// randomRequests builds a request sequence covering every shape Serve
// distinguishes: mutating and read-only messages, bundles, conditional
// reads, out-of-range instances, a configuration write that raises the
// object's epoch, and stamps below, at and above it. Every mutating message
// carries a timestamp of its own.
func randomRequests(rng *rand.Rand, n int) []wire.Request {
	ts := int64(0)
	pair := func() types.Pair {
		ts++
		return types.Pair{TS: types.TS{Seq: ts, WID: int64(rng.Intn(3))}, Val: types.Value(fmt.Sprintf("v%d", ts))}
	}
	leaf := func() types.Message {
		switch rng.Intn(6) {
		case 0:
			return types.Message{Kind: types.MsgPreWrite, Pair: pair(), Token: types.Token(rng.Intn(3))}
		case 1:
			return types.Message{Kind: types.MsgWrite, Pair: pair()}
		case 2:
			return types.Message{Kind: types.MsgWriteBack, Pair: pair()}
		case 3:
			return types.Message{Kind: types.MsgRead1, Flags: types.FlagNoValues}
		case 4:
			return types.Message{Kind: types.MsgRead1, Have: []types.Have{{TS: types.TS{Seq: ts}, Digest: types.Value(fmt.Sprintf("v%d", ts)).Digest()}}}
		default:
			return types.Message{Kind: types.MsgRead1}
		}
	}
	reqs := make([]wire.Request, 0, n)
	for i := 0; i < n; i++ {
		req := wire.Request{ID: uint64(i + 1), Epoch: uint64(rng.Intn(4))} // active epoch: 0, later 2
		req.From = types.Reader(1 + rng.Intn(2))
		if rng.Intn(2) == 0 {
			req.From = types.WriterID(rng.Intn(3))
		}
		req.Reg = rng.Intn(3)
		switch rng.Intn(12) {
		case 0:
			req.Reg = -1
		case 1:
			req.Reg = MaxRegisters
		case 2: // a configuration lands: the epoch gate arms at 2
			req.Reg, req.Epoch = config.Reg, 0
			cfg := config.Config{Epoch: 2, Addrs: []string{"a:1", "b:1", "c:1", "d:1"}}
			kind := types.MsgPreWrite
			if rng.Intn(2) == 0 {
				kind = types.MsgWrite
			}
			req.Msg = types.Message{Kind: kind, Pair: types.Pair{TS: pair().TS, Val: cfg.Encode()}}
			reqs = append(reqs, req)
			continue
		}
		if rng.Intn(3) == 0 {
			req.Msg = types.Message{Kind: types.MsgMux}
			for k := 0; k <= rng.Intn(3); k++ {
				req.Msg.Sub = append(req.Msg.Sub, types.SubMsg{Reg: types.ReaderReg(k), Msg: leaf()})
			}
		} else {
			req.Msg = leaf()
		}
		req.Msg.Seq = i
		reqs = append(reqs, req)
	}
	return reqs
}

// TestServeSingleIsBatchOfOne: for random request sequences under every
// behavior and every fault mix, a host served each request in its single form
// and a host served the same request as a batch of one return the same
// verdict and the same reply, log the same mutations, and end in the same
// state — and the log holds exactly the mutating requests that were neither
// lost on the link, refused by the epoch gate, nor addressed out of range,
// each appended before it was applied.
func TestServeSingleIsBatchOfOne(t *testing.T) {
	for bname, behavior := range behaviors {
		for cname, install := range chaos {
			t.Run(bname+"/"+cname, func(t *testing.T) {
				mk := func() (*Host, *fakeLog) {
					l := &fakeLog{t: t}
					h, err := NewHost(3, l)
					if err != nil {
						t.Fatal(err)
					}
					l.host = h
					h.SetBehavior(behavior())
					install(h)
					return h, l
				}
				one, oneLog := mk()
				many, manyLog := mk()
				for _, req := range randomRequests(rand.New(rand.NewSource(11)), 400) {
					stale := req.Epoch != 0 && req.Epoch < one.Epoch()
					logged, lost, refused := len(oneLog.reqs), mLinkDropped.Value(), mStaleEpoch.Value()
					r1, send1, dup1, delay1 := one.Serve(req)
					wasLost, wasRefused := mLinkDropped.Value() > lost, mStaleEpoch.Value() > refused
					batch := req
					batch.Reg, batch.Msg = 0, types.Message{}
					batch.Subs = []wire.SubReq{{Reg: req.Reg, Msg: req.Msg}}
					r2, send2, dup2, delay2 := many.Serve(batch)
					if send1 != send2 || dup1 != dup2 || delay1 != delay2 {
						t.Fatalf("request %d (%v): single → send=%v dup=%v delay=%v, batch of one → send=%v dup=%v delay=%v",
							req.ID, req.Msg.Kind, send1, dup1, delay1, send2, dup2, delay2)
					}
					if send1 {
						if r1.ID != req.ID || r2.ID != req.ID || r1.Server != 3 || r2.Server != 3 {
							t.Fatalf("request %d: replies stamped %d/s%d and %d/s%d", req.ID, r1.ID, r1.Server, r2.ID, r2.Server)
						}
						got := r2.Msg // a refusal answers the frame, not a sub-request
						if !wasRefused {
							if len(r2.Subs) != 1 || r2.Subs[0].Reg != req.Reg {
								t.Fatalf("request %d: batch of one answered with %d subs", req.ID, len(r2.Subs))
							}
							got = r2.Subs[0].Msg
						}
						if !reflect.DeepEqual(r1.Msg, got) {
							t.Fatalf("request %d: single reply %+v, batch-of-one reply %+v", req.ID, r1.Msg, got)
						}
					}
					// The gate refuses exactly the stale stamps that reach it, and
					// the log holds exactly the mutations that passed link, gate and
					// sanitizer — whatever the behavior then did with the reply.
					if wasRefused != (stale && !wasLost) || (wasRefused && (!send1 || r1.Msg.Kind != types.MsgWrongEpoch)) {
						t.Fatalf("request %d: epoch %d against %d: lost=%v refused=%v reply %v", req.ID, req.Epoch, one.Epoch(), wasLost, wasRefused, r1.Msg.Kind)
					}
					valid := req.Reg >= 0 && req.Reg < MaxRegisters
					want := Mutates(req.Msg) && valid && !wasLost && !wasRefused
					if got := len(oneLog.reqs) > logged; got != want {
						t.Fatalf("request %d (%v, reg %d, lost=%v, refused=%v): logged=%v, want %v", req.ID, req.Msg.Kind, req.Reg, wasLost, wasRefused, got, want)
					}
					if cname == "partition" && (!wasLost || send1) {
						t.Fatalf("request %d reached a partitioned object", req.ID)
					}
				}
				if len(oneLog.reqs) != len(manyLog.reqs) {
					t.Fatalf("single form logged %d requests, batch form %d", len(oneLog.reqs), len(manyLog.reqs))
				}
				for i, req := range oneLog.reqs {
					b := manyLog.reqs[i]
					if len(b.Subs) != 1 || b.Subs[0].Reg != req.Reg || !reflect.DeepEqual(b.Subs[0].Msg, req.Msg) || !Mutates(req.Msg) {
						t.Fatalf("log record %d: single %+v, batch %+v", i, req, b)
					}
				}
				s1, err1 := EncodeStores(one.stores)
				s2, err2 := EncodeStores(many.stores)
				if err1 != nil || err2 != nil || !bytes.Equal(s1, s2) {
					t.Fatalf("final states differ (%v, %v)", err1, err2)
				}
				if applies := bname != "garbage" && bname != "falseneed" && cname != "partition"; one.Epoch() != many.Epoch() || (applies && one.Epoch() != 2) {
					t.Errorf("epochs %d and %d after the configuration writes", one.Epoch(), many.Epoch())
				}
			})
		}
	}
}

// TestServeUnloggableMutationIsSilent: when the log refuses a record, the
// mutation is neither applied nor acknowledged; reads still answer.
func TestServeUnloggableMutationIsSilent(t *testing.T) {
	l := &fakeLog{t: t, fail: true}
	h, err := NewHost(1, l)
	if err != nil {
		t.Fatal(err)
	}
	l.host = h
	write := wire.Request{ID: 1, Reg: 4, Msg: types.Message{Kind: types.MsgWrite, Pair: pair(1, "v")}}
	if _, send, _, _ := h.Serve(write); send {
		t.Fatal("an unlogged write was acknowledged")
	}
	rsp, send, _, _ := h.Serve(wire.Request{ID: 2, Reg: 4, Msg: types.Message{Kind: types.MsgRead1}})
	if !send || !rsp.Msg.W.IsBottom() {
		t.Fatalf("read after the refused write: send=%v w=%v", send, rsp.Msg.W)
	}
}

// TestServeBatchSanitizesAndRoutes: a batch is one received message —
// out-of-range instances are cut before the log and the automata see them,
// each remaining sub-request runs against its own instance, and a batch with
// nothing valid in it is silence.
func TestServeBatchSanitizesAndRoutes(t *testing.T) {
	l := &fakeLog{t: t}
	h, err := NewHost(2, l)
	if err != nil {
		t.Fatal(err)
	}
	l.host = h
	w := func(reg int, ts int64) wire.SubReq {
		return wire.SubReq{Reg: reg, Msg: types.Message{Kind: types.MsgWrite, Pair: pair(ts, "v"), Seq: int(ts)}}
	}
	rsp, send, _, _ := h.Serve(wire.Request{ID: 9, Subs: []wire.SubReq{w(1, 1), w(-5, 2), w(7, 3), w(MaxRegisters, 4)}})
	if !send || len(rsp.Subs) != 2 || rsp.Subs[0].Reg != 1 || rsp.Subs[1].Reg != 7 || rsp.Subs[1].Msg.Seq != 3 {
		t.Fatalf("batch reply: send=%v subs=%+v", send, rsp.Subs)
	}
	if len(l.reqs) != 1 || len(l.reqs[0].Subs) != 2 {
		t.Fatalf("logged %+v, want one record of the two valid sub-requests", l.reqs)
	}
	if h.Registers() != 2 {
		t.Errorf("host instantiated %d register instances, want 2", h.Registers())
	}
	if _, send, _, _ := h.Serve(wire.Request{ID: 10, Subs: []wire.SubReq{w(-1, 5)}}); send || len(l.reqs) != 1 {
		t.Errorf("a batch of invalid instances: send=%v, %d records", send, len(l.reqs))
	}
}

// TestServeSinglePathDoesNotAllocate pins "a single request is a batch of
// one" at no cost: viewing the request as a one-element batch allocates
// nothing (the reply's own sub-message slice is the automaton's).
func TestServeSinglePathDoesNotAllocate(t *testing.T) {
	h := NewHosts(1)[0]
	req := wire.Request{ID: 1, Reg: 1, Msg: types.Message{Kind: types.MsgWrite, Pair: pair(1, "v")}}
	h.Serve(req)
	if n := testing.AllocsPerRun(100, func() { h.Serve(req) }); n != 0 {
		t.Errorf("Serve allocates %.0f times on the single-request path", n)
	}
}

func TestEncodeStoresRoundTrip(t *testing.T) {
	stores := map[int]*Store{}
	for reg := 0; reg < 4; reg++ {
		st := NewStore()
		st.Handle(types.Writer, types.Message{Kind: types.MsgWrite, Pair: pair(int64(reg+1), "x")})
		stores[reg] = st
	}
	b, err := EncodeStores(stores)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]*Store{}
	if err := DecodeStores(b, got); err != nil {
		t.Fatal(err)
	}
	for reg, st := range stores {
		if got[reg] == nil || got[reg].Reg(types.WriterReg).W != st.Reg(types.WriterReg).W {
			t.Errorf("instance %d mismatch", reg)
		}
	}
	if b2, _ := EncodeStores(stores); string(b) != string(b2) {
		t.Error("EncodeStores not deterministic")
	}
	empty, err := EncodeStores(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeStores(empty, map[int]*Store{}); err != nil {
		t.Fatal(err)
	}
	for _, junk := range [][]byte{nil, {0x7f}, {storesVersion, 5}, append(append([]byte(nil), b...), 1)} {
		if err := DecodeStores(junk, map[int]*Store{}); err == nil {
			t.Errorf("junk payload %v accepted", junk)
		}
	}
}

// gateLog is a Persister that keeps what the host logs, in the log's order,
// and holds the first Sync back until it is let through: the fsync one
// connection's record waits out while another connection's record, written
// after it, is durable already.
type gateLog struct {
	fakeLog
	mu    sync.Mutex
	syncs int
	gate  chan struct{}
}

func (l *gateLog) Write(req wire.Request) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reqs = append(l.reqs, req)
	return nil
}

func (l *gateLog) Sync() error {
	l.mu.Lock()
	l.syncs++
	first := l.syncs == 1
	l.mu.Unlock()
	if first {
		<-l.gate
	}
	return nil
}

func (l *gateLog) logged() []wire.Request {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]wire.Request(nil), l.reqs...)
}

// TestServeAppliesInLogOrder: a conditioned write applies or refuses by the
// state it meets, so the live object must meet the requests in the order
// replay will — the log's — however their fsync waits end. Connection 1's
// PREWRITE is logged first and held in its fsync; connection 2's WRITE by
// reference to that pair is logged second and durable at once. It waits its
// turn, promotes the pair, and the log replays to the state the object is in.
func TestServeAppliesInLogOrder(t *testing.T) {
	l := &gateLog{gate: make(chan struct{})}
	h, err := NewHost(1, l)
	if err != nil {
		t.Fatal(err)
	}
	const reg = 4
	p := pair(3, strings.Repeat("k=v;", 64))
	replies := make([]chan types.Message, 2)
	for i, msg := range []types.Message{
		{Kind: types.MsgPreWrite, Pair: p, Token: 7},
		byRef(types.MsgWrite, p),
	} {
		replies[i] = make(chan types.Message, 1)
		go func() {
			rsp, send, _, _ := h.Serve(wire.Request{ID: uint64(i + 1), Reg: reg, Msg: msg})
			if !send {
				rsp.Msg = types.Message{}
			}
			replies[i] <- rsp.Msg
		}()
		// The next connection's request arrives once this one's record is in
		// the log (and, the PREWRITE's, stuck behind its fsync).
		for deadline := time.Now().Add(5 * time.Second); len(l.logged()) <= i; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("request %d never reached the log", i+1)
			}
		}
	}
	select {
	case m := <-replies[1]:
		t.Fatalf("the WRITE logged second was answered %v while the PREWRITE logged first was not yet applied", m.Kind)
	case <-time.After(20 * time.Millisecond):
	}
	close(l.gate)
	for i, want := range []types.MsgKind{types.MsgAck, types.MsgAck} {
		if got := (<-replies[i]).Kind; got != want {
			t.Errorf("request %d answered %v, want %v", i+1, got, want)
		}
	}
	live := h.Store(reg).Reg(types.WriterReg)
	if live.PW != p || live.W != p {
		t.Errorf("live state pw=%v w=%v, want both %v", live.PW.TS, live.W.TS, p.TS)
	}
	replayed := NewStore()
	for _, req := range l.logged() {
		replayed.Handle(req.From, req.Msg)
	}
	if got := replayed.Reg(types.WriterReg); got.PW != live.PW || got.W != live.W {
		t.Errorf("the log replays to pw=%v w=%v, the object holds pw=%v w=%v", got.PW.TS, got.W.TS, live.PW.TS, live.W.TS)
	}
}
