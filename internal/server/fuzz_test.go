package server

import (
	"bytes"
	"testing"

	"robustatomic/internal/types"
)

// FuzzSnapshotRestore throws arbitrary bytes at the store snapshot decoder:
// Restore must never panic, and any input it accepts must
// round-trip — re-snapshotting the restored store yields bytes that restore
// to the identical state.
func FuzzSnapshotRestore(f *testing.F) {
	seed := NewStore()
	seed.Handle(types.WriterID(2), types.Message{Kind: types.MsgPreWrite, Pair: types.Pair{TS: types.TS{Seq: 3, WID: 2}, Val: "mw"}})
	seed.Handle(types.Writer, types.Message{Kind: types.MsgWrite, Pair: types.Pair{TS: types.At(1), Val: "sw"}})
	snap, err := seed.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Add([]byte{0x02, 0x00})
	f.Add([]byte{0x03, 0x00})
	f.Add([]byte("not a snapshot"))
	f.Fuzz(func(t *testing.T, data []byte) {
		st := NewStore()
		if err := st.Restore(data); err != nil {
			return
		}
		re, err := st.Snapshot()
		if err != nil {
			t.Fatalf("restored store does not snapshot: %v", err)
		}
		rt := NewStore()
		if err := rt.Restore(re); err != nil {
			t.Fatalf("re-snapshot does not restore: %v", err)
		}
		rt2, err := rt.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, rt2) {
			t.Fatal("snapshot bytes drift across restore cycles")
		}
	})
}
