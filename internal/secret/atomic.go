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
//
// There is no second read flow either, nor a reader of this model's own: a
// core.Reader's hit key includes the reply's token, and its write-back
// re-asserts the chosen pair under the token the pair was read with
// (regular.ReadAcc.Token) — one query round whenever 2t+1 objects report one
// (w pair, token) tuple, improving on the 3-round contention-free optimum the
// paper cites from [DMSS09]; contended or Byzantine-disturbed reads degrade
// to the full 4 rounds.
func NewAtomicWriterAt(r proto.Rounder, th quorum.Thresholds, rng *rand.Rand, wid int64, last types.TS) *core.Writer {
	return core.NewWriterOn(r, th, wid, NewWriterAt(r, th, rng, wid, last))
}
