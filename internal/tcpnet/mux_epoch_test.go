package tcpnet

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"robustatomic/internal/config"
	"robustatomic/internal/proto"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

// wrongEpochReply builds the refusal a daemon sends for a stale stamp:
// active epoch in Pair.TS.Seq, the encoded configuration as the hint.
func wrongEpochReply(req wire.Request, epoch uint64, hint types.Value) wire.Response {
	return wire.Response{ID: req.ID, Msg: types.Message{
		Kind: types.MsgWrongEpoch,
		Pair: types.Pair{TS: types.TS{Seq: int64(epoch)}, Val: hint},
		Seq:  req.Msg.Seq,
	}}
}

// TestWrongEpochFailFast pins the redirect fast path: once more than t
// objects refuse a round for staleness, at least one CORRECT object holds a
// newer configuration, so the round must fail immediately with the typed
// WrongEpochError — carrying the newest reported epoch and the hints —
// instead of burning its deadline.
func TestWrongEpochFailFast(t *testing.T) {
	hint := config.Config{Epoch: 7, Addrs: []string{"a:1", "b:2", "c:3", "d:4"}}.Encode()
	addrs := make([]string, 4)
	for i := range addrs {
		addrs[i], _, _ = startRawServer(t, func(req wire.Request, enc *wire.Encoder) {
			enc.EncodeResponse(wrongEpochReply(req, 7, hint))
		})
	}
	c := NewMux(addrs).Client(types.Reader(1), 0)
	defer c.mux.Close()
	c.RoundTimeout = 5 * time.Second

	start := time.Now()
	err := c.Round(ackSpec("STALE"))
	if !errors.Is(err, ErrWrongEpoch) {
		t.Fatalf("refused round: err = %v, want ErrWrongEpoch", err)
	}
	var we *WrongEpochError
	if !errors.As(err, &we) {
		t.Fatalf("refused round: err = %T, want *WrongEpochError", err)
	}
	if we.Epoch != 7 {
		t.Errorf("reported epoch = %d, want 7", we.Epoch)
	}
	if len(we.Hints) == 0 {
		t.Error("no hints collected from refusals")
	}
	if we.Cause != nil {
		t.Errorf("proven redirect (> t refusers) carries Cause %v, want nil", we.Cause)
	}
	for _, h := range we.Hints {
		if cfg, err := config.Decode(h); err != nil || cfg.Epoch != 7 {
			t.Errorf("hint decoded to (%v, %v), want the epoch-7 config", cfg, err)
		}
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("redirect took %v, want fail-fast (well under the deadline)", d)
	}
	if n := c.mux.pendingWaiters(); n != 0 {
		t.Fatalf("after refused round: %d pending waiters, want 0", n)
	}
}

// TestWrongEpochMinorityStillRedirects pins the partial-activation case:
// with t or fewer refusals the round keeps collecting (a lone Byzantine
// forgery must not abort a satisfiable round), but if every reply arrives
// and the accumulator is still short, any refusal in the mix makes the
// redirect — not ErrRoundTimeout — the diagnosis.
func TestWrongEpochMinorityStillRedirects(t *testing.T) {
	addrs := make([]string, 4)
	for i := range addrs {
		refuse := i == 0 // exactly one refusal: ≤ t, no fast path
		addrs[i], _, _ = startRawServer(t, func(req wire.Request, enc *wire.Encoder) {
			if refuse {
				enc.EncodeResponse(wrongEpochReply(req, 3, types.Bottom))
				return
			}
			enc.EncodeResponse(wire.Response{ID: req.ID, Msg: types.Message{Kind: types.MsgAck}})
		})
	}
	c := NewMux(addrs).Client(types.WriterID(1), 0)
	defer c.mux.Close()

	// Needs all four acks; the refusal denies the fourth.
	spec := proto.RoundSpec{
		Label: "NEEDS-ALL",
		Req:   func(sid int) types.Message { return types.Message{Kind: types.MsgRead1} },
		Acc:   proto.AckAcc(4),
	}
	err := c.Round(spec)
	var we *WrongEpochError
	if !errors.As(err, &we) {
		t.Fatalf("round short by one refusal: err = %v, want *WrongEpochError", err)
	}
	if we.Epoch != 3 {
		t.Errorf("reported epoch = %d, want 3", we.Epoch)
	}
	// ≤ t refusals do not PROVE a newer configuration — the error must carry
	// the underlying denial as Cause, so a caller whose config refetch finds
	// nothing newer can degrade to the ordinary retry path instead of
	// hard-failing on a lone forged refusal.
	if we.Cause == nil {
		t.Fatal("minority redirect carries no Cause; refetch failure would hard-fail the operation")
	}
	if !errors.Is(we.Cause, ErrRoundTimeout) {
		t.Errorf("Cause = %v, want ErrRoundTimeout (all replies in, accumulator unsatisfied)", we.Cause)
	}
	// Cause must stay OUT of the Unwrap chain: the error still classifies
	// Reconfig (refetch first); the fallback to Cause is an explicit caller
	// decision, not an errors.Is match.
	if errors.Is(we, ErrRoundTimeout) || errors.Is(we, ErrConnLost) {
		t.Error("WrongEpochError unwraps to its Cause; classification must stay Reconfig")
	}
	// A satisfiable round must NOT be aborted by the lone refusal: quorum 1
	// is met by any correct object's ack.
	if err := c.Round(ackSpec("SATISFIABLE")); err != nil {
		t.Fatalf("satisfiable round despite one refusal: %v", err)
	}
}

// TestEpochStamping pins the stamping rule: data-plane rounds carry the
// mux's configuration epoch, config-plane rounds (the config register) carry
// the epoch-0 wildcard — the config must stay readable ACROSS an epoch
// change, or a stale client could never learn the new configuration.
func TestEpochStamping(t *testing.T) {
	var lastEpoch atomic.Uint64
	var lastReg atomic.Int64
	addr, _, _ := startRawServer(t, func(req wire.Request, enc *wire.Encoder) {
		lastEpoch.Store(req.Epoch)
		lastReg.Store(int64(req.Reg))
		enc.EncodeResponse(wire.Response{ID: req.ID, Msg: types.Message{Kind: types.MsgAck}})
	})
	m := NewMux([]string{addr})
	defer m.Close()

	if err := m.Client(types.Reader(1), 0).Round(ackSpec("DATA")); err != nil {
		t.Fatal(err)
	}
	if got := lastEpoch.Load(); got != 1 {
		t.Errorf("data-plane stamp = %d, want bootstrap epoch 1", got)
	}
	if err := m.Client(types.Reader(1), config.Reg).Round(ackSpec("CONFIG")); err != nil {
		t.Fatal(err)
	}
	if lastReg.Load() != config.Reg {
		t.Fatalf("config round addressed reg %d, want %d", lastReg.Load(), config.Reg)
	}
	if got := lastEpoch.Load(); got != 0 {
		t.Errorf("config-plane stamp = %d, want wildcard 0", got)
	}

	if err := m.Reconfigure(5, []string{addr}); err != nil {
		t.Fatal(err)
	}
	if err := m.Client(types.Reader(1), 0).Round(ackSpec("DATA2")); err != nil {
		t.Fatal(err)
	}
	if got := lastEpoch.Load(); got != 5 {
		t.Errorf("post-reconfigure stamp = %d, want 5", got)
	}
}

// TestReconfigureSwapsSlotAndClearsDialState pins the reconfiguration
// contract: swapping a slot's address tears down the old connection (its
// in-flight rounds fail with ErrConnLost, its replies never count for the
// slot again) and clears the slot's dial state — a departed daemon's
// backoff latch must not delay the first dial of its replacement.
func TestReconfigureSwapsSlotAndClearsDialState(t *testing.T) {
	oldAddr, oldAccepts, stopOld := startRawServer(t, func(req wire.Request, enc *wire.Encoder) {
		// Withhold replies: rounds against the old daemon stay in flight.
	})
	newAddr, newAccepts, _ := startRawServer(t, func(req wire.Request, enc *wire.Encoder) {
		enc.EncodeResponse(wire.Response{ID: req.ID, Msg: types.Message{Kind: types.MsgAck}})
	})
	m := NewMux([]string{oldAddr})
	defer m.Close()
	c := m.Client(types.Reader(1), 0)
	c.RoundTimeout = 10 * time.Second

	errCh := make(chan error, 1)
	go func() { errCh <- c.Round(ackSpec("INFLIGHT")) }()
	deadline := time.Now().Add(5 * time.Second)
	for m.pendingWaiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("round never registered its waiter")
		}
		time.Sleep(time.Millisecond)
	}

	// Kill the old daemon and immediately reconfigure away from it — the
	// replace flow under test. The dead address would normally latch a 1s
	// dial backoff; the reconfigure must clear it so the new address is
	// dialed synchronously on the next round.
	stopOld()
	if err := m.Reconfigure(2, []string{newAddr}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrConnLost) {
			t.Fatalf("in-flight round across reconfigure: err = %v, want ErrConnLost", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight round did not observe the reconfigure")
	}

	start := time.Now()
	if err := c.Round(ackSpec("AFTER")); err != nil {
		t.Fatalf("first round on the new address: %v", err)
	}
	if d := time.Since(start); d > DialBackoff/2 {
		t.Errorf("first post-reconfigure round took %v — the departed address's backoff leaked", d)
	}
	if got := newAccepts.Load(); got != 1 {
		t.Errorf("new daemon saw %d connections, want 1", got)
	}

	// The departed address must see no further dials: wait past the backoff
	// window and run more rounds — an eternal redial loop would reconnect.
	old := oldAccepts.Load()
	time.Sleep(DialBackoff + 100*time.Millisecond)
	if err := c.Round(ackSpec("LATER")); err != nil {
		t.Fatal(err)
	}
	if got := oldAccepts.Load(); got != old {
		t.Errorf("departed address dialed again after reconfigure (%d → %d accepts)", old, got)
	}
	if n := m.pendingWaiters(); n != 0 {
		t.Fatalf("%d pending waiters after quiescence, want 0", n)
	}
}

// TestReconfigurePreservesInflightDial pins the fix for the reconfigure/
// dial race: Reconfigure swapping a slot while a synchronous dial is in
// flight must NOT zero the slot's dial marker. Doing so would (a) let a
// second round start a concurrent dial for the slot and (b) leave the
// first dialer to close a nil — or a foreign — syncDone channel, panicking
// every round sharing the mux. The marker belongs to the in-flight dialer
// until IT clears it; Reconfigure resets only the backoff latch.
func TestReconfigurePreservesInflightDial(t *testing.T) {
	addrA, _, _ := startRawServer(t, func(req wire.Request, enc *wire.Encoder) {})
	addrB, _, _ := startRawServer(t, func(req wire.Request, enc *wire.Encoder) {
		enc.EncodeResponse(wire.Response{ID: req.ID, Msg: types.Message{Kind: types.MsgAck}})
	})
	m := NewMux([]string{addrA})
	defer m.Close()

	// Plant the state connOrWait holds while its synchronous dial to addrA
	// is blocked inside net.DialTimeout (m.mu released): inflight with a
	// live syncDone, plus a stale backoff latch on the slot.
	done := make(chan struct{})
	socks(m).mu.Lock()
	socks(m).dials[0] = dialState{failedAt: time.Now(), inflight: true, syncDone: done}
	socks(m).mu.Unlock()

	if err := m.Reconfigure(2, []string{addrB}); err != nil {
		t.Fatal(err)
	}

	socks(m).mu.Lock()
	ds := socks(m).dials[0]
	socks(m).mu.Unlock()
	if !ds.inflight || ds.syncDone != done {
		t.Fatalf("reconfigure clobbered the in-flight dial marker (inflight=%v, syncDone preserved=%v): "+
			"the dialer would close a nil/foreign channel", ds.inflight, ds.syncDone == done)
	}
	if !ds.failedAt.IsZero() {
		t.Error("reconfigure kept the departed address's backoff latch")
	}

	// The dialer completes: it finds its own marker intact, clears it, and
	// installLocked's stale-address guard discards the outcome (addrA is no
	// longer slot 1's address). Replay exactly connOrWait's completion step.
	socks(m).mu.Lock()
	if socks(m).dials[0].syncDone == done {
		socks(m).dials[0].inflight = false
		socks(m).dials[0].syncDone = nil
	}
	_, installErr := socks(m).installLocked(1, addrA, nil, errors.New("dial tcp: i/o timeout"))
	socks(m).mu.Unlock()
	close(done)
	if installErr == nil {
		t.Fatal("stale dial outcome installed, want discarded")
	}
	socks(m).mu.Lock()
	stale := !socks(m).dials[0].failedAt.IsZero()
	socks(m).mu.Unlock()
	if stale {
		t.Error("stale dial's failure latched a backoff onto the NEW address")
	}

	// The slot is clean: the next round dials the new address synchronously.
	if err := m.Client(types.Reader(1), 0).Round(ackSpec("AFTER-RACE")); err != nil {
		t.Fatalf("round after the settled race: %v", err)
	}
}

// TestWrongEpochNegativeSeqIgnored pins the hostile-input clamp: the
// refusal's epoch rides in Pair.TS.Seq, a Byzantine-controlled int64. A
// negative value converted blindly to uint64 would report an astronomical
// epoch that no genuine configuration can ever reach, permanently
// defeating the refetcher's already-adopted short-circuit. Negative Seqs
// must not contribute to the reported epoch.
func TestWrongEpochNegativeSeqIgnored(t *testing.T) {
	hint := config.Config{Epoch: 3, Addrs: []string{"a:1", "b:2", "c:3", "d:4"}}.Encode()
	// t = 2: the round fails on its third refusal. The two forged ones come
	// first (the genuine epoch-3 ones are held back), so the reported epoch is
	// the third's — whichever order the first two arrive in.
	addrs := make([]string, 7)
	for i := range addrs {
		negative := i < 2
		addrs[i], _, _ = startRawServer(t, func(req wire.Request, enc *wire.Encoder) {
			if !negative {
				time.Sleep(20 * time.Millisecond)
			}
			if negative {
				enc.EncodeResponse(wire.Response{ID: req.ID, Msg: types.Message{
					Kind: types.MsgWrongEpoch,
					Pair: types.Pair{TS: types.TS{Seq: -5}, Val: types.Bottom},
					Seq:  req.Msg.Seq,
				}})
				return
			}
			enc.EncodeResponse(wrongEpochReply(req, 3, hint))
		})
	}
	c := NewMux(addrs).Client(types.Reader(1), 0)
	defer c.mux.Close()

	err := c.Round(ackSpec("FORGED"))
	var we *WrongEpochError
	if !errors.As(err, &we) {
		t.Fatalf("refused round: err = %v, want *WrongEpochError", err)
	}
	if we.Epoch != 3 {
		t.Errorf("reported epoch = %d, want 3 (negative Seq must be ignored)", we.Epoch)
	}
}

// TestReconfigureVacantSlotSkipped pins vacancy semantics: a slot the
// configuration leaves vacant is skipped instantly (no dial, no backoff
// stall) and simply counts as faulty; quorums over the remaining slots
// still complete.
func TestReconfigureVacantSlotSkipped(t *testing.T) {
	addr, _, _ := startRawServer(t, func(req wire.Request, enc *wire.Encoder) {
		enc.EncodeResponse(wire.Response{ID: req.ID, Msg: types.Message{Kind: types.MsgAck}})
	})
	dead, _, stopDead := startRawServer(t, func(req wire.Request, enc *wire.Encoder) {})
	stopDead()
	m := NewMux([]string{addr, dead})
	defer m.Close()
	c := m.Client(types.Reader(1), 0)

	if err := m.Reconfigure(2, []string{addr, ""}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := c.Round(ackSpec("VACANT")); err != nil {
		t.Fatalf("round with one vacant slot: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("round took %v — the vacant slot must be skipped, not dialed", d)
	}
}

// TestReconfigureStaleAndMalformed pins the guard rails: an epoch not newer
// than the mux's is a no-op (racing refetches converge on the newest
// configuration), and a slot-count mismatch is refused (S is fixed).
func TestReconfigureStaleAndMalformed(t *testing.T) {
	addr, _, _ := startRawServer(t, func(req wire.Request, enc *wire.Encoder) {
		enc.EncodeResponse(wire.Response{ID: req.ID, Msg: types.Message{Kind: types.MsgAck}})
	})
	m := NewMux([]string{addr})
	defer m.Close()

	if err := m.Reconfigure(3, []string{addr}); err != nil {
		t.Fatal(err)
	}
	if err := m.Reconfigure(2, []string{"gone:1"}); err != nil {
		t.Fatalf("stale reconfigure: %v, want nil no-op", err)
	}
	if got := m.Epoch(); got != 3 {
		t.Errorf("epoch after stale reconfigure = %d, want 3", got)
	}
	if got := m.Addrs()[0]; got != addr {
		t.Errorf("address after stale reconfigure = %q, want unchanged", got)
	}
	if err := m.Reconfigure(4, []string{addr, "extra:1"}); err == nil {
		t.Error("slot-count mismatch accepted, want error (S is fixed)")
	}
}
