package tcpnet

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"robustatomic/internal/proto"
	"robustatomic/internal/quorum"
	"robustatomic/internal/regular"
	"robustatomic/internal/server"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

// formLog is a behavior that records the form of every write its object is
// sent — "PREWRITE full", "WRITE ref", "PREWRITE splice" — and then hands the
// message to the behavior under it.
type formLog struct {
	mu    sync.Mutex
	forms []string
	under server.Behavior
}

func (l *formLog) Reply(st *server.Store, from types.ProcID, m types.Message) (types.Message, bool) {
	if server.Mutates(m) {
		form := "full"
		switch {
		case m.Flags&types.FlagSplice != 0:
			form = "splice"
		case len(m.Have) > 0:
			form = "ref"
		}
		l.mu.Lock()
		l.forms = append(l.forms, m.Kind.String()+" "+form)
		l.mu.Unlock()
	}
	l.mu.Lock()
	under := l.under
	l.mu.Unlock()
	return under.Reply(st, from, m)
}

// restart empties the log and puts it over another behavior.
func (l *formLog) restart(under server.Behavior) {
	l.mu.Lock()
	l.forms, l.under = nil, under
	l.mu.Unlock()
}

// waitForms waits until the object was sent n writes and returns them.
func (l *formLog) waitForms(t *testing.T, n int) string {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		l.mu.Lock()
		got := strings.Join(l.forms, ", ")
		done := len(l.forms) >= n
		l.mu.Unlock()
		if done || time.Now().After(deadline) {
			return got
		}
	}
}

// TestNeedValueIsAnsweredInFullOncePerRound drives value-eliding writes over
// sockets against real objects: a settled object is sent the edit and the
// reference and nothing else; an object that refuses (FalseNeed: every time)
// is sent each phase once more, in full, inside the round — which neither
// waits for it nor repeats itself; a correct object that missed the base is
// caught up by the one re-send; and a deferred object, whose refusal nobody
// would hear, is sent the full form to begin with.
func TestNeedValueIsAnsweredInFullOncePerRound(t *testing.T) {
	th, err := quorum.NewThresholds(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	servers, addrs := startCluster(t, 4)
	logs := make([]*formLog, 4)
	for i, s := range servers {
		logs[i] = &formLog{under: server.Honest{}}
		s.SetBehavior(logs[i])
	}
	m := NewMux(addrs)
	defer m.Close()
	w := regular.NewWriter(m.Client(types.Writer, 0), th, types.WriterReg)
	table := strings.Repeat("k=v;", 64)
	pairAt := func(seq int64) types.Pair {
		return types.Pair{TS: types.At(seq), Val: types.Value(fmt.Sprintf("%s%d", table, seq))}
	}
	// derived writes pairAt(seq) as pairAt(seq-1) with its last byte replaced.
	derived := func(seq int64) {
		t.Helper()
		base := pairAt(seq - 1)
		var e types.Edit
		e.Splice(len(base.Val)-1, 1, []byte(fmt.Sprint(seq)))
		if err := w.WriteDerived(pairAt(seq), types.Delta{Base: base, Edit: e.Value(len(base.Val))}); err != nil {
			t.Fatal(err)
		}
	}
	held := func(sid int) types.Pair {
		d := m.Direct(addrs[sid-1], types.Reader(1))
		defer d.Close()
		_, w, err := d.ProbeReg(0, types.WriterReg)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}

	resent := mResentFull.Value()
	if err := w.WritePair(pairAt(1)); err != nil {
		t.Fatal(err)
	}
	derived(2)
	for _, l := range logs {
		if got, want := l.waitForms(t, 4), "PREWRITE full, WRITE ref, PREWRITE splice, WRITE ref"; got != want {
			t.Errorf("a settled object was sent %q, want %q", got, want)
		}
	}
	if d := mResentFull.Value() - resent; d != 0 {
		t.Errorf("%d phases re-sent in full among settled objects", d)
	}

	// Object 4 refuses everything, and is heard doing it: objects 1..3 answer
	// late enough.
	for _, s := range servers[:3] {
		s.SetNetem(nil, 0, 0, 20*time.Millisecond)
	}
	logs[3].restart(server.FalseNeed{})
	derived(3)
	if got, want := logs[3].waitForms(t, 4), "PREWRITE splice, PREWRITE full, WRITE ref, WRITE full"; got != want {
		t.Errorf("a refusing object was sent %q, want %q", got, want)
	}
	if d := mResentFull.Value() - resent; d != 2 {
		t.Errorf("%d phases re-sent in full to an object refusing in two rounds, want 2", d)
	}

	// Honest again, it holds pair 2 where everyone holds pair 3: the edit of
	// pair 3 finds no base there, the one re-send catches it up, and the
	// reference that follows finds its pair.
	logs[3].restart(server.Honest{})
	derived(4)
	if got, want := logs[3].waitForms(t, 3), "PREWRITE splice, PREWRITE full, WRITE ref"; got != want {
		t.Errorf("an object that had missed the base was sent %q, want %q", got, want)
	}
	if got := held(4); got != pairAt(4) {
		t.Errorf("the object that had missed the base holds %v after the write that heard it", got.TS)
	}
	for _, s := range servers[:3] {
		s.SetNetem(nil, 0, 0, 0)
	}

	// Deferred, object 4 is sent its writes once the round is Done, and nobody
	// waits for what it says: it gets the value, not a form it might refuse.
	for i := 0; i < suspectRun; i++ {
		m.susp.observe(proto.Verdict{W: mask(4)})
	}
	logs[3].restart(server.Honest{})
	m.srtt.Store(int64(time.Second)) // the hedge far away: nothing releases the deferred request early
	derived(5)
	if got, want := logs[3].waitForms(t, 2), "PREWRITE full, WRITE full"; got != want {
		t.Errorf("a deferred object was sent %q, want %q", got, want)
	}
}

// fullMsg is a sub-round's full form: one message for every object.
type fullMsg types.Message

func (f fullMsg) FullRequest(int) types.Message { return types.Message(f) }

// TestRepeatedNeedValueBuysOneResend: a Byzantine object answers a batched
// round's conditioned writes with `need value` a thousand times per register.
// It is sent each refused sub-round in full once — the re-send is sized by
// what the round asked, never by what a reply repeats.
func TestRepeatedNeedValueBuysOneResend(t *testing.T) {
	const lag = 20 * time.Millisecond // the liar is heard before the round is Done
	ack := func(req wire.Request, enc *wire.Encoder) {
		rsp := wire.Response{ID: req.ID}
		for _, sub := range req.Subs {
			rsp.Subs = append(rsp.Subs, wire.SubReq{Reg: sub.Reg, Msg: types.Message{Kind: types.MsgAck}})
		}
		enc.EncodeResponse(rsp)
	}
	addrs := make([]string, 4)
	for i := range addrs[:3] {
		addrs[i], _, _ = startRawServer(t, func(req wire.Request, enc *wire.Encoder) {
			time.Sleep(lag)
			ack(req, enc)
		})
	}
	var mu sync.Mutex
	var sent []int // the sub-requests in each request the liar received
	addrs[3], _, _ = startRawServer(t, func(req wire.Request, enc *wire.Encoder) {
		mu.Lock()
		sent = append(sent, len(req.Subs))
		first := len(sent) == 1
		mu.Unlock()
		if !first {
			ack(req, enc)
			return
		}
		rsp := wire.Response{ID: req.ID}
		for i := 0; i < 1000; i++ {
			for _, sub := range req.Subs {
				rsp.Subs = append(rsp.Subs, wire.SubReq{Reg: sub.Reg, Msg: types.Message{Kind: types.MsgNeedValue}})
			}
		}
		enc.EncodeResponse(rsp)
	})
	m := NewMux(addrs)
	defer m.Close()
	full := fullMsg{Kind: types.MsgPreWrite, Pair: types.Pair{TS: types.At(2), Val: types.Value(strings.Repeat("k=v;", 1024))}}
	cond := types.Message{Kind: types.MsgPreWrite, Flags: types.FlagSplice, Pair: types.Pair{TS: types.At(2), Val: "edit"},
		Have: []types.Have{{TS: types.At(1), Digest: 1}}}
	spec := proto.RoundSpec{Label: "BATCH"}
	for reg := 1; reg <= 2; reg++ {
		spec.Subs = append(spec.Subs, proto.SubRound{
			Reg: reg, Req: func(int) types.Message { return cond }, Full: full, Acc: proto.NewAckBits(3),
		})
	}
	resent := mResentFull.Value()
	if err := m.Client(types.Writer, 0).Round(spec); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		got := fmt.Sprint(sent)
		mu.Unlock()
		if got == "[2 2]" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the liar was sent requests of %s sub-requests, want [2 2]: the batch, and one re-send of its two sub-rounds", got)
		}
	}
	if d := mResentFull.Value() - resent; d != 1 {
		t.Errorf("core_write_resent_full_total moved by %d, want 1", d)
	}
}
