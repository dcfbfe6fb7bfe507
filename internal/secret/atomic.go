package secret

import (
	"math/rand"

	"robustatomic/internal/core"
	"robustatomic/internal/proto"
	"robustatomic/internal/quorum"
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

// NewAtomicReader returns the handle of reader idx out of `readers` in the
// secret-token model. There is no second read flow: it is core.Reader — one
// multiplexed query round over the R+1 registers when every register's
// replies hit (2t+1 identical (w pair, token) tuples, see regular.ReadAcc),
// the decision round for the registers that missed, the write-back elided
// when the shared register's replies certify the pair completely written —
// with rng as the token source of its write-backs. A stable register thus
// reads in a SINGLE round, improving on the 3-round contention-free optimum
// the paper cites from [DMSS09]; contended or Byzantine-disturbed reads
// degrade to the full 4 rounds.
func NewAtomicReader(r proto.Rounder, th quorum.Thresholds, rng *rand.Rand, idx, readers int) *core.Reader {
	rd := core.NewReader(r, th, idx, readers)
	rd.NextToken = tokenSource(rng)
	return rd
}

// NewAtomicReaderAt resumes the reader's write-back register from a known
// internal sequence number (see core.NewReaderAt).
func NewAtomicReaderAt(r proto.Rounder, th quorum.Thresholds, rng *rand.Rand, idx, readers int, seq int64) *core.Reader {
	rd := core.NewReaderAt(r, th, idx, readers, seq)
	rd.NextToken = tokenSource(rng)
	return rd
}
