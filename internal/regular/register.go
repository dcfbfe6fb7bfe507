package regular

import (
	"fmt"

	"robustatomic/internal/proto"
	"robustatomic/internal/quorum"
	"robustatomic/internal/types"
)

// PreWriteSpec builds the writer's first round — store the pair in pw of
// the shared register at every object, await S−t acknowledgements — and returns the
// acknowledgement count with it: the replies' prior-state piggybacks (each
// object's pre-prewrite (pw, w) timestamps, values stripped) fold into its
// MaxTS, the optimistic write's certification input. The reports are
// uncertified: a Byzantine acknowledger can inflate the maximum (forcing
// the caller's fallback, bounded like discovery inflation) or underreport
// it (harmless — any write that COMPLETED before this round began reached
// a correct member of this quorum, whose honest report carries it).
func PreWriteSpec(th quorum.Thresholds, p types.Pair, tok types.Token) (proto.RoundSpec, *proto.BitAcc) {
	return writeSpec(th, "PREWRITE", types.MsgPreWrite, types.WriterReg, p, tok, types.Have{}, "", 0)
}

// writeSpec builds a write phase's round: store p in pw (PREWRITE) or w
// (WRITE) of register reg at every object, await S−t acknowledgements. It is
// the one place a write request is built, and the unconditioned request is the
// conditioned one with its value present: when held names a pair (its digest
// is not 0), the objects outside full are asked with a message that carries
// held where p's value was — the objects hold that pair, and p's value is its
// value: as it stands (a WRITE by reference: held is p itself, which the
// PREWRITE stored) or through edit (types.Value.Splice). An object that does
// not hold it says so and is sent p (proto.RegAcc.Conditioned). The
// acknowledgements say who is left without p (BitAcc.Lack): the next phase's
// full.
func writeSpec(th quorum.Thresholds, label string, kind types.MsgKind, reg types.RegID, p types.Pair, tok types.Token, held types.Have, edit types.Value, full uint64) (proto.RoundSpec, *proto.BitAcc) {
	acks := proto.NewAckBits(th.Quorum())
	acks.Expect(p.TS)
	ra := new(proto.RegAcc)
	ra.Ask(reg, types.Message{Kind: kind, Pair: p, Token: tok}, acks)
	if held.Digest != 0 {
		var flags types.MsgFlags
		if edit != "" {
			flags = types.FlagSplice
		}
		ra.Conditioned(held, edit, flags, full)
	}
	return ra.Spec(label), acks
}

// Read1Spec builds the first read query round: collect states from a quorum.
func Read1Spec(th quorum.Thresholds, reg types.RegID) (proto.RoundSpec, *StateAcc) {
	acc := NewStateAcc(th)
	var ra proto.RegAcc
	ra.Ask(reg, types.Message{Kind: types.MsgRead1}, acc)
	return ra.Spec("READ1"), acc
}

// ReadPairOn runs one regular read over ra — which asks a register for its
// state into acc — and returns its pair: round labels[0] alone when
// the replies hit (see ReadAcc), the decision round labels[1] after it when
// they miss. A traced first round is annotated by note, if set. The rounds
// are conditioned on ra's known-pair set, if it has one: what the set holds,
// the objects need not send.
func ReadPairOn(r proto.Rounder, ra *proto.RegAcc, acc *ReadAcc, labels [2]string, note func() string) (types.Pair, error) {
	acc.Reset()
	for i, label := range labels {
		if i > 0 {
			acc.BeginDecide()
		}
		spec := ra.Spec(label)
		if i == 0 {
			spec.Note = note
		}
		if err := r.Round(spec); err != nil {
			return types.Pair{}, fmt.Errorf("regular: read round %d: %w", i+1, err)
		}
		if acc.Hit() {
			break
		}
	}
	return acc.Choice(), nil
}

// WriteBack completes p, a pair a read of the shared register decided, at its
// own timestamp: both write phases, each by reference (dig is p's value digest)
// and under tok, the token p was read with. An object holding p promotes it;
// one that does not answers need value and is sent p in full (writeSpec), and
// the PREWRITE's acknowledgements say who is left without p for the WRITE. No
// timestamp is issued, so the caller needs no writer identity, and the
// register's values stay the writers'.
func WriteBack(r proto.Rounder, th quorum.Thresholds, p types.Pair, tok types.Token, dig uint64) error {
	held := types.Have{TS: p.TS, Digest: dig}
	var lack uint64
	for _, phase := range [...]types.MsgKind{types.MsgPreWrite, types.MsgWrite} {
		spec, acks := writeSpec(th, phase.String(), phase, types.WriterReg, p, tok, held, "", lack)
		if err := r.Round(spec); err != nil {
			return fmt.Errorf("regular: write-back %v: %w", phase, err)
		}
		lack = acks.Lack()
	}
	return nil
}

// Writer is one writer of a regular register instance. A register owned by a
// single writer issues consecutive sequence numbers (the SWMR discipline the
// read decision's causality analysis exploits); a multi-writer register's
// writers jump to whatever sequence number their timestamp-discovery round
// dictates, which the relaxed monotonicity check below permits.
type Writer struct {
	rounder proto.Rounder
	th      quorum.Thresholds
	reg     types.RegID
	wid     int64
	// NextToken, when set, attaches a fresh secret token to each phase
	// ([DMSS09] model); nil leaves tokens zero (unauthenticated model).
	NextToken func() types.Token
	ts        types.TS
	// issued is the highest timestamp this writer ever proposed in a
	// PREWRITE round, completed or not. A failed write may have installed
	// its pair at some objects, so later proposals must exceed issued —
	// re-proposing an issued timestamp with a DIFFERENT value would let two
	// correct objects hold different values for one timestamp, breaking the
	// value-agreement invariant the read decision relies on.
	issued types.TS
	// pending is the token attached to the in-flight prewrite, reused by
	// the matching WRITE phase (both phases of one write carry one token);
	// lack the objects whose acknowledgement of it showed them without the
	// pair (a foreign prewrite got there first), which the WRITE phase sends
	// the value instead of a reference to it.
	pending types.Token
	lack    uint64
	// known, when set, is told every pair this writer issues, as it issues it
	// (PreWritePair), and remembers its digest for the WRITE by reference.
	known *proto.Known
}

// UseKnown makes the writer record the pairs it issues in k: this process
// holds their values, so no object need send them back (proto.Known.Seed). A
// Known set is the shared register's, so only that register's writer
// (core.Writer) takes one.
func (w *Writer) UseKnown(k *proto.Known) { w.known = k }

// NewWriter returns writer 0's handle for the register instance reg (use
// types.WriterReg for the writers' shared register).
func NewWriter(r proto.Rounder, th quorum.Thresholds, reg types.RegID) *Writer {
	return &Writer{rounder: r, th: th, reg: reg}
}

// NewWriterAt returns the handle of writer wid resuming from a known last
// timestamp (the last timestamp this process completed — or observed, for a
// multi-writer register); callers that construct a fresh Writer per
// operation thread the timestamp through here.
func NewWriterAt(r proto.Rounder, th quorum.Thresholds, reg types.RegID, wid int64, last types.TS) *Writer {
	return &Writer{rounder: r, th: th, reg: reg, wid: wid, ts: last}
}

// Write stores v under this writer's next timestamp. Two rounds: PREWRITE,
// WRITE. On a multi-writer register the caller must have discovered the
// sequence number to exceed first (core.Writer does); Write alone only
// dominates this writer's own history.
func (w *Writer) Write(v types.Value) error {
	if v.IsBottom() {
		return fmt.Errorf("regular: cannot write the reserved initial value ⊥")
	}
	return w.WritePair(types.Pair{TS: w.ts.Next(w.wid), Val: v})
}

// WritePair stores an explicit pair. The timestamp must carry this writer's
// id — in the idempotent re-write branch too, so a writer resuming from an
// OBSERVED foreign timestamp can never re-issue that timestamp with its own
// value (two correct objects holding different values for one timestamp
// would break the value-agreement invariant the read decision relies on) —
// and must equal or exceed the writer's last timestamp (equality is an
// idempotent re-write of the writer's own pair; it still runs both rounds).
// Single-writer callers keep issuing consecutive sequence numbers (their
// read decision's causality filter assumes it); multi-writer callers jump
// ahead to dominate foreign timestamps their discovery round observed.
func (w *Writer) WritePair(p types.Pair) error { return w.WriteDerived(p, types.Delta{}) }

// WriteDerived is WritePair for a value derived from one the objects hold:
// from.Edit turns from.Base's value into p's, and when that is the smaller
// encoding it is what the PREWRITE carries. The zero Delta derives from
// nothing.
func (w *Writer) WriteDerived(p types.Pair, from types.Delta) error {
	if _, err := w.preWrite(p, from); err != nil {
		return err
	}
	return w.CommitPair(p)
}

// PreWritePair runs only the PREWRITE round for p (same timestamp
// discipline as WritePair) and returns the highest pre-prewrite timestamp
// the acknowledging quorum reported — the optimistic fast path's validation
// input. The caller finishes the write with CommitPair(p), or abandons it
// (an abandoned prewrite is indistinguishable from a writer that crashed
// between phases, which the protocol already tolerates; the timestamp is
// recorded as issued and never reused with another value).
func (w *Writer) PreWritePair(p types.Pair) (types.TS, error) {
	return w.preWrite(p, types.Delta{})
}

func (w *Writer) preWrite(p types.Pair, from types.Delta) (types.TS, error) {
	if p.TS.WID != w.wid || (p.TS != w.ts && !w.ts.Less(p.TS)) {
		return types.TS{}, fmt.Errorf("regular: writer %d cannot write at timestamp %s after %s", w.wid, p.TS, w.ts)
	}
	w.pending = 0
	if w.NextToken != nil {
		w.pending = w.NextToken()
	}
	w.issued = types.MaxTS(w.issued, p.TS)
	// The timestamp is issued: no other value will ever exist under it, and
	// from the PREWRITE on objects hold the pair — a read of this process that
	// overlaps the write must already offer it, or be shipped the value back.
	w.known.Seed(p)
	var held types.Have
	if from.Edit != "" && len(from.Edit) < len(p.Val) {
		held = types.Have{TS: from.Base.TS, Digest: w.known.Digest(from.Base)}
	}
	spec, acc := writeSpec(w.th, "PREWRITE", types.MsgPreWrite, w.reg, p, w.pending, held, from.Edit, 0)
	if err := w.rounder.Round(spec); err != nil {
		return types.TS{}, fmt.Errorf("regular: prewrite: %w", err)
	}
	w.lack = acc.Lack()
	return acc.MaxTS(), nil
}

// CommitPair runs the WRITE round for the pair passed to the immediately
// preceding PreWritePair, completing the write (it reuses that prewrite's
// token, so the phases of one write stay tied together in the secret-token
// model).
func (w *Writer) CommitPair(p types.Pair) error {
	held := types.Have{TS: p.TS, Digest: w.known.Digest(p)}
	spec, _ := writeSpec(w.th, "WRITE", types.MsgWrite, w.reg, p, w.pending, held, "", w.lack)
	if err := w.rounder.Round(spec); err != nil {
		return fmt.Errorf("regular: write: %w", err)
	}
	w.ts = p.TS
	return nil
}

// LastTS returns the timestamp of the last completed write.
func (w *Writer) LastTS() types.TS { return w.ts }

// IssuedTS returns the highest timestamp this writer ever proposed in a
// PREWRITE round (≥ LastTS once anything was written). Multi-writer flows
// base successor timestamps on it so a pair abandoned by a failed or
// superseded write attempt is never re-issued carrying a different value.
func (w *Writer) IssuedTS() types.TS { return types.MaxTS(w.issued, w.ts) }

// Reader reads one regular register instance.
type Reader struct {
	rounder proto.Rounder
	th      quorum.Thresholds
	reg     types.RegID
	// MultiWriter marks the register as written by more than one writer,
	// relaxing the decision procedure accordingly (see ReadAcc).
	MultiWriter bool
}

// NewReader returns a reader for the register instance reg.
func NewReader(r proto.Rounder, th quorum.Thresholds, reg types.RegID) *Reader {
	return &Reader{rounder: r, th: th, reg: reg}
}

// Read returns the register's value: the value of the last complete write,
// or of a concurrent one.
func (r *Reader) Read() (types.Value, error) {
	p, err := r.ReadPair()
	return p.Val, err
}

// ReadPair runs the read's query rounds — one on a fast hit, two otherwise —
// and returns its pair.
func (r *Reader) ReadPair() (types.Pair, error) {
	acc := NewReadAcc(r.th)
	acc.MultiWriter = r.MultiWriter
	var ra proto.RegAcc
	ra.Ask(r.reg, types.Message{Kind: types.MsgRead1}, acc)
	return ReadPairOn(r.rounder, &ra, acc, [2]string{"READ1", "READ2"}, nil)
}
