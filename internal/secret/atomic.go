package secret

import (
	"math/rand"

	"robustatomic/internal/core"
	"robustatomic/internal/proto"
	"robustatomic/internal/quorum"
	"robustatomic/internal/types"
)

// NewAtomicWriterAt returns the handle of writer wid, resuming from a known
// last timestamp, in the secret-token model. There is no second write flow:
// it is core.Writer — the adaptive multi-writer write (2 rounds when the
// optimistic proposal certifies, discovery or certified fallback under
// interference; certification does not need tokens) — over the pair writer
// that attaches a fresh token to every write. Distinct writers' timestamps
// never collide (the writer id breaks ties), so concurrent multi-writer
// traffic cannot forge a fast-path (pair, token) match.
func NewAtomicWriterAt(r proto.Rounder, th quorum.Thresholds, rng *rand.Rand, wid int64, last types.TS) *core.Writer {
	return core.NewWriterOn(r, th, wid, NewWriterAt(r, th, rng, wid, last))
}

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
