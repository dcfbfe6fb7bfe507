package torture

import (
	"testing"

	"robustatomic/internal/checker"
	"robustatomic/internal/types"
)

// TestRecorderAbandonedPutStillBinds: an abandoned Put leaves the history
// pending, not forgotten. Once a read returned a1, a1 took effect before b1
// was written, so a read of a1 after a read of b1 is a new-old inversion that
// checkAll must reject — what TestScriptedStoreFailedPutStaysFailed relies on.
// Without the read of a1 the same history is accepted: a1 may surface late.
func TestRecorderAbandonedPutStillBinds(t *testing.T) {
	for _, readA1First := range []bool{true, false} {
		var rec recorder
		w, r := types.WriterID(10), types.Reader(1)
		read := func(v types.Value) { rec.respond(rec.invoke("k", r, checker.OpRead, ""), v) }
		rec.abandon(rec.invoke("k", w, checker.OpWrite, "a1"))
		if readA1First {
			read("a1")
		}
		rec.respond(rec.invoke("k", w, checker.OpWrite, "b1"), "")
		read("b1")
		read("a1")
		_, err := checkAll(rec.histories(), checker.Budget{})
		if (err != nil) != readA1First {
			t.Errorf("a1 read before b1 was written: %v; checkAll: %v", readA1First, err)
		}
	}
}
