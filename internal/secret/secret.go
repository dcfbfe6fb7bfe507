// Package secret implements the stronger-model register of the paper's
// Section 5 second composition: following [DMSS09] ("Efficient robust
// storage using secret tokens", cited as [8]), writes attach fresh
// unguessable tokens to each phase, and the adversary cannot simulate step
// contention — a Byzantine object can replay (pair, token) tuples it
// received but cannot fabricate a tuple that matches a token it never saw.
//
// Under that restriction reads of the base register complete in a SINGLE
// round whenever a quorum exhibits the same written (pair, token) tuple —
// in particular in every contention-free execution, Byzantine or not — and
// fall back to the unauthenticated two-round decision read otherwise.
// Composed with the regular→atomic transformation this yields the paper's
// "2-round write, 3-round read" atomic storage in the secret-value model
// (3 rounds in contention-free executions; our implementation degrades to 4
// under read/write contention, a documented approximation of [8], whose
// full protocol keeps 3 worst-case — see DESIGN.md).
package secret

import (
	"fmt"
	"math/rand"

	"robustatomic/internal/proto"
	"robustatomic/internal/quorum"
	"robustatomic/internal/regular"
	"robustatomic/internal/types"
)

// Writer wraps the two-phase writer with fresh tokens per write.
type Writer struct {
	inner *regular.Writer
}

// NewWriter returns the writer handle; rng generates the secret tokens
// (pass a crypto-strength source in production; tests use seeded PRNGs).
func NewWriter(r proto.Rounder, th quorum.Thresholds, rng *rand.Rand) *Writer {
	return NewWriterAt(r, th, rng, 0, types.TS{})
}

// NewWriterAt returns the handle of writer wid resuming from a known last
// timestamp.
func NewWriterAt(r proto.Rounder, th quorum.Thresholds, rng *rand.Rand, wid int64, last types.TS) *Writer {
	inner := regular.NewWriterAt(r, th, types.WriterReg, wid, last)
	inner.NextToken = tokenSource(rng)
	return &Writer{inner: inner}
}

// tokenSource draws fresh non-zero tokens from rng (0 means "no token").
func tokenSource(rng *rand.Rand) func() types.Token {
	return func() types.Token {
		for {
			if tok := types.Token(rng.Uint64()); tok != 0 {
				return tok
			}
		}
	}
}

// Write stores v in two rounds, attaching a fresh token.
func (w *Writer) Write(v types.Value) error {
	if err := w.inner.Write(v); err != nil {
		return fmt.Errorf("secret: %w", err)
	}
	return nil
}

// WritePair stores an explicit pair (the atomic composition supplies
// multi-writer timestamps through here), attaching a fresh token.
func (w *Writer) WritePair(p types.Pair) error {
	if err := w.inner.WritePair(p); err != nil {
		return fmt.Errorf("secret: %w", err)
	}
	return nil
}

// PreWritePair runs only the (token-carrying) PREWRITE round, returning the
// quorum's prior-timestamp report — the optimistic fast path's validation
// input (see core.PairWriter).
func (w *Writer) PreWritePair(p types.Pair) (types.TS, error) {
	prior, err := w.inner.PreWritePair(p)
	if err != nil {
		return types.TS{}, fmt.Errorf("secret: %w", err)
	}
	return prior, nil
}

// CommitPair completes the write pre-written by the immediately preceding
// PreWritePair, reusing its token.
func (w *Writer) CommitPair(p types.Pair) error {
	if err := w.inner.CommitPair(p); err != nil {
		return fmt.Errorf("secret: %w", err)
	}
	return nil
}

// LastTS returns the timestamp of the last completed write.
func (w *Writer) LastTS() types.TS { return w.inner.LastTS() }

// IssuedTS returns the highest timestamp ever proposed (see
// regular.Writer.IssuedTS).
func (w *Writer) IssuedTS() types.TS { return w.inner.IssuedTS() }

// Reader reads the secret-token register: one round on the fast path, two
// on the slow path.
type Reader struct {
	rounder proto.Rounder
	th      quorum.Thresholds
	// FastPath reports whether the last read decided on its first round.
	FastPath bool
}

// NewReader returns a reader handle.
func NewReader(r proto.Rounder, th quorum.Thresholds) *Reader {
	return &Reader{rounder: r, th: th}
}

// Read returns the register value.
func (r *Reader) Read() (types.Value, error) {
	p, err := r.ReadPair()
	return p.Val, err
}

// ReadPair runs the regular read (regular.ReadPairOn): one round when 2t+1
// objects exhibit the same written (pair, token) tuple, the unauthenticated
// decision round over the frozen first view otherwise.
func (r *Reader) ReadPair() (types.Pair, error) {
	acc := regular.NewReadAcc(r.th)
	p, err := regular.ReadPairOn(r.rounder, types.WriterReg, acc, nil)
	if err != nil {
		return types.Pair{}, fmt.Errorf("secret: %w", err)
	}
	r.FastPath = acc.Hit()
	return p, nil
}
