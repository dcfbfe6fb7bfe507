package sim

import (
	"runtime"
	"testing"

	"robustatomic/internal/checker"
	"robustatomic/internal/proto"
	"robustatomic/internal/types"
)

// TestRendezvousLeaksNoTimers: a model-check loop runs millions of rounds,
// and each round is two rendezvous with the client goroutine. Bounding those
// with time.After parked a 30-second timer in the runtime's heap per
// rendezvous; one watchdog per Sim parks none, so the live heap after 100 k
// rounds is where 1 k rounds left it.
func TestRendezvousLeaksNoTimers(t *testing.T) {
	s := New(Config{Servers: 1})
	defer s.Close()
	heapAfter := func(rounds int) uint64 {
		op := s.Spawn("w", types.Writer, checker.OpWrite, types.Bottom, func(c *Client) (types.Value, error) {
			for i := 0; i < rounds; i++ {
				spec := proto.RoundSpec{
					Label: "PING",
					Req: func(int) types.Message {
						return types.Message{Kind: types.MsgWrite, Pair: types.Pair{TS: types.At(1), Val: "a"}}
					},
					Acc: proto.AckAcc(1),
				}
				if err := c.Round(spec); err != nil {
					return types.Bottom, err
				}
			}
			return types.Bottom, nil
		})
		for !op.Done() {
			s.Step(op, 1)
		}
		if op.Rounds() != rounds {
			t.Fatalf("op ran %d rounds, want %d", op.Rounds(), rounds)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapObjects
	}
	small, large := heapAfter(1_000), heapAfter(100_000)
	if large > small+10_000 {
		t.Errorf("live heap objects: %d after 1 k rounds, %d after 100 k more — something is kept per round", small, large)
	}
}
