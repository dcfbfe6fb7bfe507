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
	"math/rand"

	"robustatomic/internal/proto"
	"robustatomic/internal/quorum"
	"robustatomic/internal/regular"
	"robustatomic/internal/types"
)

// NewWriterAt returns the base register's handle of writer wid, resuming from
// a known last timestamp: the two-phase regular writer attaching a fresh token
// to each write; rng generates the tokens (pass a crypto-strength source in
// production; tests use seeded PRNGs).
func NewWriterAt(r proto.Rounder, th quorum.Thresholds, rng *rand.Rand, wid int64, last types.TS) *regular.Writer {
	w := regular.NewWriterAt(r, th, types.WriterReg, wid, last)
	w.NextToken = tokenSource(rng)
	return w
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
