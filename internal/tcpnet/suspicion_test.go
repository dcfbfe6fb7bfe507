package tcpnet

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"robustatomic/internal/core"
	"robustatomic/internal/obs"
	"robustatomic/internal/proto"
	"robustatomic/internal/quorum"
	"robustatomic/internal/regular"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

func mask(sids ...int) (m uint64) {
	for _, sid := range sids {
		m |= 1 << uint(sid)
	}
	return m
}

// TestScoreboard pins the suspicion rule without a socket in sight: a RUN of
// consecutive dissents (never a score), at most t suspects with the longest
// runs first and ties by sid, the probe cadence, and the reset a
// reconfigured slot gets.
func TestScoreboard(t *testing.T) {
	dissent := func(sb *scoreboard, n int, sids ...int) {
		for i := 0; i < n; i++ {
			sb.observe(proto.Verdict{W: mask(sids...)})
		}
	}
	for _, tc := range []struct {
		name string
		n    int
		feed func(sb *scoreboard)
		want uint64
	}{
		{"15 dissents then one agreement: trusted", 4, func(sb *scoreboard) {
			dissent(sb, suspectRun-1, 2)
			sb.observe(proto.Verdict{Agree: mask(2)})
			dissent(sb, suspectRun-1, 2)
		}, 0},
		{"16 in a row: suspect", 4, func(sb *scoreboard) { dissent(sb, suspectRun, 2) }, mask(2)},
		{"every reason counts", 4, func(sb *scoreboard) {
			for i := 0; i < suspectRun; i++ {
				sb.observe([]proto.Verdict{{Inflate: mask(3)}, {W: mask(3)}}[i%2])
			}
		}, mask(3)},
		{"dissent beats agreement in one verdict", 4, func(sb *scoreboard) {
			for i := 0; i < suspectRun; i++ {
				v := proto.Verdict{Agree: mask(1, 3, 4)}
				v.Merge(proto.Verdict{Agree: mask(2, 4), W: mask(4)})
				sb.observe(v)
			}
		}, mask(4)},
		{"unobserved slots keep their record", 4, func(sb *scoreboard) {
			dissent(sb, suspectRun, 2)
			for i := 0; i < 100; i++ {
				sb.observe(proto.Verdict{Agree: mask(1, 3, 4)})
			}
		}, mask(2)},
		{"an agreeing observation reinstates at once", 4, func(sb *scoreboard) {
			dissent(sb, runCap+5, 2)
			sb.observe(proto.Verdict{Agree: mask(1, 2, 3)})
		}, 0},
		{"never more than t, ties by sid", 7, func(sb *scoreboard) { dissent(sb, suspectRun, 6, 3, 5, 1) }, mask(1, 3)},
		{"never more than t, longest runs first", 7, func(sb *scoreboard) {
			dissent(sb, 4, 6, 7)
			dissent(sb, suspectRun, 1, 2, 6, 7)
		}, mask(6, 7)},
		{"t = 0 defers nobody", 3, func(sb *scoreboard) { dissent(sb, runCap, 1, 2, 3) }, 0},
		{"reset forgets the slot, the next in line moves up", 7, func(sb *scoreboard) {
			dissent(sb, suspectRun, 1, 2, 3)
			sb.reset(1)
		}, mask(2, 3)},
	} {
		sb := newScoreboard(tc.n)
		tc.feed(sb)
		if got := sb.held.Load(); got != tc.want {
			t.Errorf("%s: suspects %b, want %b (runs %v)", tc.name, got, tc.want, sb.run)
		}
	}

	// Probe cadence: with a suspect, exactly every probeEvery-th round defers
	// nobody; with none, no round is a probe.
	sb := newScoreboard(4)
	for i := 0; i < 3*probeEvery; i++ {
		if held, probe, _ := sb.plan(); held != 0 || probe {
			t.Fatalf("round %d of a trusting mux: held %b probe %v", i+1, held, probe)
		}
	}
	dissent(sb, suspectRun, 4)
	probes := 0
	for i := 1; i <= 4*probeEvery; i++ {
		held, probe, _ := sb.plan()
		if probe {
			probes++
		}
		if want := i%probeEvery == 0; probe != want || (held == 0) != want {
			t.Fatalf("round %d: held %b probe %v", i, held, probe)
		}
	}
	if probes != 4 {
		t.Errorf("%d probes in %d rounds, want 4", probes, 4*probeEvery)
	}
}

// TestScoreboardObserveAllocatesNothing: an honest object that is ahead while
// writes race dissents on about a quarter of the decided reads, so folding a
// dissent in costs what folding an agreement does — no counter name
// formatted, no registry lookup.
func TestScoreboardObserveAllocatesNothing(t *testing.T) {
	sb := newScoreboard(7)
	v := proto.Verdict{Agree: mask(1, 2, 3, 5, 6), W: mask(4), Inflate: mask(7)}
	for i := 0; i < runCap; i++ { // the suspects are ranked: the runs sit at the cap
		sb.observe(v)
	}
	if n := testing.AllocsPerRun(100, func() { sb.observe(v) }); n != 0 {
		t.Errorf("observe of a dissenting verdict allocates %v times, want 0", n)
	}
}

// fakeObj is a scripted object: it records what it is sent and when, and
// answers as told.
type fakeObj struct {
	addr string

	mu    sync.Mutex
	kinds []types.MsgKind
	at    []time.Time
}

// script is how a fakeObj answers: an ack after delay, or nothing at all.
type script struct {
	delay  time.Duration
	silent bool
}

func startFake(t *testing.T, sc script) *fakeObj {
	f := &fakeObj{}
	f.addr, _, _ = startRawServer(t, func(req wire.Request, enc *wire.Encoder) {
		kind := req.Msg.Kind
		if len(req.Subs) > 0 {
			kind = req.Subs[0].Msg.Kind
		}
		f.mu.Lock()
		f.kinds, f.at = append(f.kinds, kind), append(f.at, time.Now())
		f.mu.Unlock()
		if sc.silent {
			return
		}
		time.Sleep(sc.delay)
		msg := types.Message{Kind: types.MsgAck}
		rsp := wire.Response{ID: req.ID, Msg: msg}
		if len(req.Subs) > 0 {
			rsp = wire.Response{ID: req.ID, Subs: []wire.SubReq{{Reg: req.Subs[0].Reg, Msg: msg}}}
		}
		enc.EncodeResponse(rsp)
	})
	return f
}

func (f *fakeObj) seen() []types.MsgKind {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]types.MsgKind(nil), f.kinds...)
}

// waitSeen waits until the object was sent n requests.
func (f *fakeObj) waitSeen(t *testing.T, n int) []types.MsgKind {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if k := f.seen(); len(k) >= n {
			return k
		}
	}
	t.Fatalf("object was sent %v, want %d requests", f.seen(), n)
	return nil
}

// fakeCluster starts objects 1..n (scripts[sid] scripts object sid; the
// default acks at once) and a mux over them that suspects the given slots.
func fakeCluster(t *testing.T, n int, scripts map[int]script, suspects ...int) ([]*fakeObj, *Mux) {
	objs := make([]*fakeObj, n+1)
	addrs := make([]string, n)
	for sid := 1; sid <= n; sid++ {
		objs[sid] = startFake(t, scripts[sid])
		addrs[sid-1] = objs[sid].addr
	}
	m := NewMux(addrs)
	t.Cleanup(m.Close)
	// First contact dials synchronously: connect every slot now, so that the
	// timing asserted below is the rounds', not the dials'.
	for sid := 1; sid <= n; sid++ {
		if _, err := socks(m).connFor(sid); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < suspectRun; i++ {
		m.susp.observe(proto.Verdict{W: mask(suspects...)})
	}
	if got := m.susp.held.Load(); got != mask(suspects...) {
		t.Fatalf("suspects %b, want %b", got, mask(suspects...))
	}
	return objs, m
}

func kindSpec(label string, kind types.MsgKind, need int) proto.RoundSpec {
	return proto.RoundSpec{
		Label: label,
		Req:   func(int) types.Message { return types.Message{Kind: kind} },
		Acc:   proto.NewAckBits(need),
	}
}

// judgeAcc is an ack counter whose round decides something: every replier
// agreed.
type judgeAcc struct {
	*proto.BitAcc
	agree uint64
}

func (a *judgeAcc) Add(sid int, m types.Message) {
	a.BitAcc.Add(sid, m)
	a.agree |= 1 << uint(sid)
}
func (a *judgeAcc) Verdict() proto.Verdict { return proto.Verdict{Agree: a.agree} }

// TestDeferredSendsOnlyWritesAndOnlyAfterDone: a held slot is never sent a
// round that mutates nothing — nor the reads of a batch that also writes — and
// is sent a mutating one only once the round is Done — in the order the rounds
// ran, over its one connection — without a waiter to leak. Single and batched
// (Combiner) frames alike.
func TestDeferredSendsOnlyWritesAndOnlyAfterDone(t *testing.T) {
	const lag = 30 * time.Millisecond
	objs, m := fakeCluster(t, 4, map[int]script{
		1: {delay: lag}, 3: {delay: lag}, 4: {delay: lag},
	}, 2)
	m.srtt.Store(int64(time.Second)) // hedge far away: timeout/2
	c := m.Client(types.Writer, 0)
	deferred, inflight := mDeferred.Value(), mMuxInFlight.Value()

	if err := c.Round(kindSpec("READ", types.MsgRead1, 3)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, kind := range []types.MsgKind{types.MsgPreWrite, types.MsgWrite} {
		if err := c.Round(kindSpec(kind.String(), kind, 3)); err != nil {
			t.Fatal(err)
		}
	}
	batch := proto.RoundSpec{Label: "BATCH", Subs: []proto.SubRound{
		{Reg: 1, Req: func(int) types.Message { return types.Message{Kind: types.MsgRead1} }, Acc: proto.NewAckBits(3)},
		{Reg: 2, Req: func(int) types.Message { return types.Message{Kind: types.MsgWriteBack} }, Acc: proto.NewAckBits(0)},
	}}
	if err := c.Round(batch); err != nil {
		t.Fatal(err)
	}
	readOnly := batch
	readOnly.Subs = batch.Subs[:1]
	readOnly.Subs[0].Acc = proto.NewAckBits(3)
	if err := c.Round(readOnly); err != nil {
		t.Fatal(err)
	}

	got := objs[2].waitSeen(t, 3)
	if fmt.Sprint(got) != fmt.Sprint([]types.MsgKind{types.MsgPreWrite, types.MsgWrite, types.MsgWriteBack}) {
		t.Errorf("the deferred object was sent %v, want PREWRITE, WRITE, then the mutating batch's write without its READ — and no read-only round", got)
	}
	objs[2].mu.Lock()
	if d := objs[2].at[0].Sub(start); d < lag {
		t.Errorf("the deferred PREWRITE arrived %v into its round, before the others' replies (%v) made it Done", d, lag)
	}
	objs[2].mu.Unlock()
	if got := objs[1].seen(); len(got) != 5 {
		t.Errorf("an undeferred object was sent %v, want all 5 rounds", got)
	}
	if d := mDeferred.Value() - deferred; d != 5 {
		t.Errorf("tcpnet_round_deferred_total moved by %d, want 5", d)
	}
	if n := m.pendingWaiters(); n != 0 {
		t.Errorf("%d waiters pending: a fire-and-forget send registered one", n)
	}
	if d := mMuxInFlight.Value() - inflight; d != 0 {
		t.Errorf("tcpnet_inflight_waiters off by %d after quiescence", d)
	}
}

// TestDeferredObjectEndsUpWhereItsPeersAre: real objects, one of them held:
// once a write's frames drain, the held object holds exactly what its peers
// hold — every object still receives every write.
func TestDeferredObjectEndsUpWhereItsPeersAre(t *testing.T) {
	th, err := quorum.NewThresholds(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, addrs := startCluster(t, 4)
	m := NewMux(addrs)
	defer m.Close()
	for i := 0; i < suspectRun; i++ {
		m.susp.observe(proto.Verdict{W: mask(3)})
	}
	deferred := mDeferred.Value()
	w := regular.NewWriter(m.Client(types.Writer, 0), th, types.WriterReg)
	for i := 1; i <= 20; i++ {
		if err := w.Write(types.Value(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	want := types.Pair{TS: types.At(20), Val: "v20"}
	for sid := 1; sid <= 4; sid++ {
		var pw, wr types.Pair
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if pw, wr, err = probeShared(addrs[sid-1], 0); err != nil {
				t.Fatal(err)
			}
			if wr == want {
				break
			}
		}
		if pw != want || wr != want {
			t.Errorf("s%d holds pw %v, w %v; want %v in both", sid, pw, wr, want)
		}
	}
	if d := mDeferred.Value() - deferred; d != 40 {
		t.Errorf("%d rounds deferred s3, want all 40", d)
	}
}

// TestDeferredReleasedWhenRoundCannotComplete: when an undeferred object
// loses its connection mid-round, the round sends the held request at once
// — not after the hedge delay — and completes; and when an undeferred object
// has no connection to begin with, nobody is deferred.
func TestDeferredReleasedWhenRoundCannotComplete(t *testing.T) {
	objs, m := fakeCluster(t, 4, map[int]script{4: {silent: true}}, 2)
	m.srtt.Store(int64(time.Second)) // hedge: timeout/2 = 5s
	c := m.Client(types.Reader(1), 0)
	c.RoundTimeout = 10 * time.Second
	hedged := mHedged.Value()

	errCh := make(chan error, 1)
	start := time.Now()
	go func() { errCh <- c.Round(kindSpec("READ", types.MsgRead1, 3)) }()
	objs[4].waitSeen(t, 1)
	if got := objs[2].seen(); len(got) != 0 {
		t.Fatalf("the deferred object was sent %v while the round could still complete", got)
	}
	m.dropConn(4)
	if err := <-errCh; err != nil {
		t.Fatalf("round after s4's connection dropped: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("round took %v: it waited for the hedge delay", d)
	}
	if got := objs[2].seen(); len(got) != 1 {
		t.Errorf("the deferred object was sent %v, want the one READ", got)
	}

	// A slot with no connection to begin with (here: vacated).
	if err := m.Reconfigure(2, []string{objs[1].addr, objs[2].addr, objs[3].addr, ""}); err != nil {
		t.Fatal(err)
	}
	deferred := mDeferred.Value()
	if err := c.Round(kindSpec("READ", types.MsgRead1, 3)); err != nil {
		t.Fatalf("round with s4 vacant: %v", err)
	}
	if d := mDeferred.Value() - deferred; d != 0 {
		t.Errorf("a round deferred s2 although s4 has no connection")
	}
	if d := mHedged.Value() - hedged; d != 0 {
		t.Errorf("%d rounds hedged, want none", d)
	}
}

// TestHedgeBoundsAWrongSuspicion is the liveness pin: an undeferred object
// that is connected but silent, and a deferred one that is correct — every
// round completes within twice the hedge delay, and none times out.
func TestHedgeBoundsAWrongSuspicion(t *testing.T) {
	_, m := fakeCluster(t, 4, map[int]script{4: {silent: true}}, 2)
	const hedge = 100 * time.Millisecond
	m.srtt.Store(int64(hedge / 4))
	c := m.Client(types.Reader(1), 0)
	timeouts, hedged := mMuxTimeouts.Value(), mHedged.Value()
	for i := 0; i < 5; i++ { // hedged rounds do not feed the delay: it stays put
		start := time.Now()
		if err := c.Round(kindSpec("READ", types.MsgRead1, 3)); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < hedge || d > 2*hedge {
			t.Errorf("round %d took %v, want between the hedge delay %v and twice it", i, d, hedge)
		}
	}
	if d := mHedged.Value() - hedged; d != 5 {
		t.Errorf("tcpnet_round_hedged_total moved by %d, want 5", d)
	}
	if d := mMuxTimeouts.Value() - timeouts; d != 0 {
		t.Errorf("%d rounds timed out", d)
	}
	if n := m.pendingWaiters(); n != 0 {
		t.Errorf("%d waiters pending after the rounds returned", n)
	}
}

// TestProbeReinstates: every probeEvery-th round defers nobody, and a
// suspect that agrees on it is trusted again at once; one that keeps
// dissenting stays where it is.
func TestProbeReinstates(t *testing.T) {
	// The suspect answers first, so a probe's quorum of three has its reply
	// in; a deferring round's three never include it.
	lag := script{delay: 2 * time.Millisecond}
	objs, m := fakeCluster(t, 4, map[int]script{1: lag, 3: lag, 4: lag}, 2)
	c := m.Client(types.Reader(1), 0)
	probes := mProbes.Value()
	round := func(verdict func(*judgeAcc) proto.Verdict) {
		t.Helper()
		m.srtt.Store(int64(time.Second)) // no hedging
		spec := kindSpec("READ", types.MsgRead1, 0)
		spec.Acc = verdictAcc{&judgeAcc{BitAcc: proto.NewAckBits(3)}, verdict}
		if err := c.Round(spec); err != nil {
			t.Fatal(err)
		}
	}
	lying := func(a *judgeAcc) proto.Verdict {
		return proto.Verdict{Agree: a.agree &^ mask(2), W: a.agree & mask(2)}
	}
	for m.susp.rounds.Load()%probeEvery != probeEvery-1 {
		round(lying)
	}
	if got := objs[2].seen(); len(got) != 0 {
		t.Fatalf("the suspect was sent %v by deferring read-only rounds", got)
	}
	round(lying) // the probe
	if d := mProbes.Value() - probes; d != 1 {
		t.Fatalf("tcpnet_round_probe_total moved by %d, want 1", d)
	}
	if got := objs[2].seen(); len(got) != 1 {
		t.Errorf("the probe sent the suspect %v, want one request", got)
	}
	if m.susp.held.Load() != mask(2) {
		t.Fatal("a suspect that lied on its probe was reinstated")
	}
	for m.susp.rounds.Load()%probeEvery != probeEvery-1 {
		round(lying)
	}
	round((*judgeAcc).Verdict)
	if held := m.susp.held.Load(); held != 0 {
		t.Errorf("suspects %b after an agreeing probe, want none", held)
	}
}

// verdictAcc overrides a judgeAcc's verdict.
type verdictAcc struct {
	*judgeAcc
	verdict func(*judgeAcc) proto.Verdict
}

func (a verdictAcc) Verdict() proto.Verdict { return a.verdict(a.judgeAcc) }

// TestReconfigureResetsDissentRun: a replacement daemon must not inherit its
// predecessor's record — swapping a slot's address zeroes its run, and only
// that slot's.
func TestReconfigureResetsDissentRun(t *testing.T) {
	objs, m := fakeCluster(t, 7, nil, 2, 5)
	spare := startFake(t, script{})
	addrs := m.Addrs()
	addrs[1] = spare.addr
	if err := m.Reconfigure(2, addrs); err != nil {
		t.Fatal(err)
	}
	if held := m.susp.held.Load(); held != mask(5) {
		t.Fatalf("suspects %b after s2 was replaced, want s5 alone", held)
	}
	if run := obs.Default.Gauge(`tcpnet_object_dissent_run{sid="2"}`).Value(); run != 0 {
		t.Errorf("tcpnet_object_dissent_run{sid=2} = %d after the swap", run)
	}
	if err := m.Client(types.Writer, 0).Round(kindSpec("PREWRITE", types.MsgPreWrite, 5)); err != nil {
		t.Fatal(err)
	}
	spare.waitSeen(t, 1) // sent with everyone else: the replacement is trusted
	objs[5].waitSeen(t, 1)
}

// TestDirectIgnoresSuspicion: the operator's tools talk to the object they
// name over a connection of their own — a mux that suspects the object has no
// say in it.
func TestDirectIgnoresSuspicion(t *testing.T) {
	_, addrs := startCluster(t, 4)
	m := NewMux(addrs)
	defer m.Close()
	for i := 0; i < suspectRun; i++ {
		m.susp.observe(proto.Verdict{W: mask(2)})
	}
	deferred := mDeferred.Value()
	d := m.Direct(addrs[1], types.Reader(1))
	defer d.Close()
	p := types.Pair{TS: types.At(3), Val: "seeded"}
	if err := d.Seed(0, p); err != nil {
		t.Fatal(err)
	}
	if pw, w, err := d.Probe(0); err != nil || pw != p || w != p {
		t.Errorf("probe of the suspected object = pw %v, w %v, %v; want %v", pw, w, err, p)
	}
	if got := m.Suspects(); len(got) != 1 || got[0] != 2 || mDeferred.Value() != deferred {
		t.Errorf("suspects %v, %d rounds deferred: Direct went through the mux", got, mDeferred.Value()-deferred)
	}
}

// subsets returns every subset of {1..n} of size ≤ k.
func subsets(n, k int) (out [][]int) {
	var rec func(from int, cur []int)
	rec = func(from int, cur []int) {
		out = append(out, append([]int(nil), cur...))
		if len(cur) == k {
			return
		}
		for sid := from; sid <= n; sid++ {
			rec(sid+1, append(cur, sid))
		}
	}
	rec(1, nil)
	return out
}

// TestNoOperationWaitsForRoundTimeout is wait-freedom pinned, not argued: at
// t = 2, every set of ≤ t crashed objects — connected but silent, the case
// no ErrConnLost announces, or gone — against every set of ≤ t deferred
// ones, right or wrong: every write and read succeeds, in a small fraction
// of RoundTimeout.
func TestNoOperationWaitsForRoundTimeout(t *testing.T) {
	th, err := quorum.NewThresholds(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	servers, addrs := startCluster(t, 7)
	m := NewMux(addrs)
	defer m.Close()
	wc, rc := m.Client(types.Writer, 0), m.Client(types.Reader(1), 0)
	w, r := core.NewWriter(wc, th), core.NewReader(rc, th, 1, 1)
	timeouts := mMuxTimeouts.Value()
	n := 0
	step := func(crashed, held []int) {
		t.Helper()
		for sid := 1; sid <= 7; sid++ {
			m.susp.reset(sid)
		}
		for i := 0; i < suspectRun; i++ {
			m.susp.observe(proto.Verdict{W: mask(held...)})
		}
		n++
		v := fmt.Sprintf("v%d", n)
		start := time.Now()
		if err := w.Write(types.Value(v)); err != nil {
			t.Fatalf("crashed %v, deferred %v: write: %v", crashed, held, err)
		}
		if got, err := r.Read(); err != nil || string(got) != v {
			t.Fatalf("crashed %v, deferred %v: read = %q, %v; want %q", crashed, held, got, err, v)
		}
		if d := time.Since(start); d > wc.RoundTimeout/10 {
			t.Errorf("crashed %v, deferred %v: write+read took %v", crashed, held, d)
		}
	}
	for _, crashed := range subsets(7, 2) {
		for _, sid := range crashed {
			servers[sid-1].SetPartitioned(true)
		}
		for _, held := range subsets(7, 2) {
			step(crashed, held)
		}
		for _, sid := range crashed {
			servers[sid-1].SetPartitioned(false)
		}
	}
	// Gone for good: connection refused, then the dial backoff.
	servers[2].Close()
	servers[5].Close()
	for _, held := range subsets(7, 2) {
		step([]int{3, 6}, held)
	}
	if d := mMuxTimeouts.Value() - timeouts; d != 0 {
		t.Errorf("%d rounds timed out", d)
	}
}
