package secret

import (
	"fmt"
	"math/rand"

	"robustatomic/internal/core"
	"robustatomic/internal/proto"
	"robustatomic/internal/quorum"
	"robustatomic/internal/regular"
	"robustatomic/internal/types"
)

// AtomicWriter is the secret-model atomic register's writer: identical to
// the unauthenticated one except every write phase carries a fresh token.
// Writes are adaptive like the unauthenticated multi-writer register's
// (core/fastpath.go): 2 token-carrying rounds when the optimistic proposal
// certifies, discovery or certified fallback under interference.
type AtomicWriter struct {
	rounder proto.Rounder
	th      quorum.Thresholds
	wid     int64
	inner   *Writer
	known   *core.Known
}

// NewAtomicWriter returns writer 0's handle.
func NewAtomicWriter(r proto.Rounder, th quorum.Thresholds, rng *rand.Rand) *AtomicWriter {
	return NewAtomicWriterAt(r, th, rng, 0, types.TS{})
}

// NewAtomicWriterAt returns the handle of writer wid resuming from a known
// last timestamp.
func NewAtomicWriterAt(r proto.Rounder, th quorum.Thresholds, rng *rand.Rand, wid int64, last types.TS) *AtomicWriter {
	return &AtomicWriter{rounder: r, th: th, wid: wid, inner: NewWriterAt(r, th, rng, wid, last), known: core.NewKnown(th)}
}

// UseKnown shares a known-pair set with the register instance's other
// handles (see core.Writer.UseKnown).
func (w *AtomicWriter) UseKnown(k *core.Known) { w.known = k }

// Write stores v: the shared adaptive multi-writer write flow
// (core.WriteAdaptive — optimistic 2-round fast path, discovery/certified
// fallback) over the token-carrying pair-writer. Distinct writers'
// timestamps never collide (the writer id breaks ties), so concurrent
// multi-writer traffic cannot forge a fast-path (pair, token) match.
func (w *AtomicWriter) Write(v types.Value) error {
	_, err := core.WriteAdaptive(w.rounder, w.th, w.wid, v, w.inner, w.known)
	return err
}

// WriteClean attempts the validate-then-write flush fast path of
// core.WriteIfClean through the token-carrying writer.
func (w *AtomicWriter) WriteClean(v types.Value) (types.Pair, bool, error) {
	return core.WriteIfClean(w.rounder, w.th, w.wid, v, w.inner, w.known)
}

// Validate runs the one-round freshness check of core.ValidateClean.
func (w *AtomicWriter) Validate() (bool, error) {
	return core.ValidateClean(w.rounder, w.th, w.inner)
}

// Modify performs the certified read-modify-write of core.Writer.Modify in
// the secret-token model: the same shared flow (certification does not
// need tokens), writing through the token-carrying pair-writer.
func (w *AtomicWriter) Modify(fn func(cur types.Pair) (types.Value, error)) (types.Pair, error) {
	return core.ModifyCertified(w.rounder, w.th, w.wid, fn, w.inner, w.known)
}

// LastTS returns the timestamp of the last completed write.
func (w *AtomicWriter) LastTS() types.TS { return w.inner.LastTS() }

// AtomicReader performs adaptive atomic reads in the secret-token model:
// one multiplexed fast-path query round over the R+1 registers, an extra
// decision round only if some register could not decide fast, then the
// 2-round write-back into the reader's own register — ELIDED, like the
// unauthenticated reader's (core.Reader.ReadPair), when the query replies
// already certify the chosen pair as completely written on the shared
// register. A stable register thus reads in a SINGLE round (at S = 3t+1
// the fast hit's 2t+1 identical tuples are exactly the S−t-quorum elision
// evidence), improving on
// the 3-round contention-free optimum the paper cites from [DMSS09];
// contended or Byzantine-disturbed reads degrade to the full 4 rounds.
type AtomicReader struct {
	rounder proto.Rounder
	th      quorum.Thresholds
	idx     int
	readers int
	seq     int64
	rng     *rand.Rand
	known   *core.Known
	// FastPath reports whether the last read skipped the decision round.
	FastPath bool
	// Elided reports whether the last read skipped the write-back.
	Elided bool
}

// NewAtomicReader returns the handle of reader idx out of `readers`.
func NewAtomicReader(r proto.Rounder, th quorum.Thresholds, rng *rand.Rand, idx, readers int) *AtomicReader {
	return NewAtomicReaderAt(r, th, rng, idx, readers, 0)
}

// NewAtomicReaderAt resumes the reader's write-back register from a known
// internal sequence number.
func NewAtomicReaderAt(r proto.Rounder, th quorum.Thresholds, rng *rand.Rand, idx, readers int, seq int64) *AtomicReader {
	if idx < 1 || idx > readers {
		panic(fmt.Sprintf("secret: reader index %d out of 1..%d", idx, readers))
	}
	return &AtomicReader{rounder: r, th: th, rng: rng, idx: idx, readers: readers, seq: seq, known: core.NewKnown(th)}
}

// UseKnown shares a known-pair set with the register instance's other
// handles (see core.Reader.UseKnown).
func (r *AtomicReader) UseKnown(k *core.Known) { r.known = k }

// Seq returns the reader's current write-back sequence number.
func (r *AtomicReader) Seq() int64 { return r.seq }

// Read performs the atomic read.
func (r *AtomicReader) Read() (types.Value, error) {
	p, err := r.ReadPair()
	return p.Val, err
}

// ReadPair performs the atomic read, returning the chosen pair.
func (r *AtomicReader) ReadPair() (types.Pair, error) {
	regs := make([]types.RegID, 0, r.readers+1)
	regs = append(regs, types.WriterReg)
	for i := 1; i <= r.readers; i++ {
		regs = append(regs, types.ReaderReg(i))
	}

	// Physical round 1: fast-path query of every register.
	fasts := make([]*FastAcc, len(regs))
	parts := make([]core.MuxPart, len(regs))
	for i, reg := range regs {
		fasts[i] = NewFastAcc(r.th)
		parts[i] = core.MuxPart{
			Reg: reg,
			Req: func(int) types.Message { return types.Message{Kind: types.MsgRead1} },
			Acc: fasts[i],
		}
	}
	if err := r.rounder.Round(core.MuxRound("SAREAD1", parts, r.known)); err != nil {
		return types.Pair{}, fmt.Errorf("secret: read round 1: %w", err)
	}

	choices := make([]types.Pair, len(regs))
	var slowParts []core.MuxPart
	var slowAccs []*regular.DecideAcc
	var slowIdx []int
	for i := range regs {
		if p, ok := fasts[i].Fast(); ok {
			choices[i] = p
			continue
		}
		acc := regular.NewDecideAcc(r.th, fasts[i].Replies)
		// Every register runs the relaxed multi-writer decision: the shared
		// register genuinely has many writers, and write-back owners resume
		// their sequence numbers by discovery (below), which can leave a
		// crashed predecessor's number without a completed predecessor — the
		// premise the SWMR causality filter would turn against the true
		// fault set (see core.Reader.ReadPair).
		acc.MultiWriter = true
		slowAccs = append(slowAccs, acc)
		slowIdx = append(slowIdx, i)
		slowParts = append(slowParts, core.MuxPart{
			Reg: regs[i],
			Req: func(int) types.Message { return types.Message{Kind: types.MsgRead1} },
			Acc: acc,
		})
	}
	r.FastPath = len(slowParts) == 0
	if !r.FastPath {
		// Physical round 2 (slow path only): decision round for the
		// registers that could not decide fast.
		if err := r.rounder.Round(core.MuxRound("SAREAD2", slowParts, r.known)); err != nil {
			return types.Pair{}, fmt.Errorf("secret: read round 2: %w", err)
		}
		for j, acc := range slowAccs {
			choices[slowIdx[j]] = acc.Choice()
		}
	}

	best := choices[0]
	r.known.Seed(regs[0], choices[0])
	for i := 1; i < len(regs); i++ {
		r.known.Seed(regs[i], choices[i])
		p, err := core.DecodePair(choices[i].Val)
		if err != nil {
			return types.Pair{}, fmt.Errorf("secret: write-back register %v: %w", regs[i], err)
		}
		best = types.MaxPair(best, p)
	}

	// Resume the write-back sequence number from the views just collected
	// (see core.Reader.ReadPair): a fresh handle restarting at zero would
	// re-issue sequence numbers an earlier lifetime used with a different
	// value, leaving correct objects durably disagreeing on one timestamp
	// and bleeding the read decision's fault budget.
	raw := types.TS{}
	for _, m := range fasts[r.idx].Replies {
		raw = types.MaxTS(raw, types.MaxTS(m.PW.TS, m.W.TS))
	}
	for j, i := range slowIdx {
		if i == r.idx {
			raw = types.MaxTS(raw, slowAccs[j].MaxTS())
		}
	}
	r.seq = core.ResumeSeq(r.seq, choices[r.idx].TS, raw)

	// Write-back elision (see core.Reader.ReadPair and the core package
	// documentation's safety argument): a full quorum of S−t distinct
	// objects w-reporting best's timestamp (or higher) on the SHARED
	// register proves ≥ t+1 correct objects durably hold it, which forces
	// every later read — fast path included: 2t+1 identical tuples of a
	// staler pair would need more correct reporters than remain — to return
	// a pair at least as fresh. The support spans whichever rounds register
	// 0 actually ran (DecideAcc.WSupport covers both when it went slow).
	support := fasts[0].WSupport(best.TS)
	for j, i := range slowIdx {
		if i == 0 {
			support = slowAccs[j].WSupport(best.TS)
		}
	}
	if support >= r.th.Quorum() {
		r.Elided = true
		return best, nil
	}
	r.Elided = false

	// Final two physical rounds: token-carrying write-back into the
	// reader's own register (single-writer: WID stays 0).
	if r.seq+1 <= 0 {
		return types.Pair{}, fmt.Errorf("secret: write-back register sequence space exhausted")
	}
	wb := regular.NewWriterAt(r.rounder, r.th, types.ReaderReg(r.idx), 0, types.At(r.seq))
	wb.NextToken = func() types.Token {
		for {
			if tok := types.Token(r.rng.Uint64()); tok != 0 {
				return tok
			}
		}
	}
	back := types.Pair{TS: types.At(r.seq + 1), Val: core.EncodePair(best)}
	if err := wb.WritePair(back); err != nil {
		return types.Pair{}, fmt.Errorf("secret: write-back: %w", err)
	}
	r.seq++
	r.known.Seed(types.ReaderReg(r.idx), back)
	return best, nil
}
