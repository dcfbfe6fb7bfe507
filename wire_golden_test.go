package robustatomic

import (
	"encoding/hex"
	"flag"
	"os"
	"strings"
	"sync"
	"testing"

	"robustatomic/internal/core"
	"robustatomic/internal/regular"
	"robustatomic/internal/server"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

var updateWireGolden = flag.Bool("update-wire-golden", false, "rewrite testdata/wire_golden.txt from this build's frames")

// frameRecorder is an honest object that keeps the wire frame of every
// request it is handed (request ID, epoch and register instance zeroed: the
// transport's, not the protocol's).
type frameRecorder struct {
	mu     sync.Mutex
	frames []string
}

// Reply implements server.Behavior.
func (r *frameRecorder) Reply(inner *server.Store, from types.ProcID, m types.Message) (types.Message, bool) {
	frame, err := wire.AppendRequest(nil, wire.Request{From: from, Msg: m})
	if err != nil {
		panic(err)
	}
	r.mu.Lock()
	r.frames = append(r.frames, m.TraceNote()+" "+hex.EncodeToString(frame))
	r.mu.Unlock()
	return inner.Handle(from, m), true
}

// TestWireGolden pins the bytes a client puts on the wire: the request
// frames object 1 receives over one Store attach and three flushes (the first
// from ⊥: its PREWRITE carries the table; then the validated fast path: WVAL,
// a PREWRITE by splice — one inserting an entry, one replacing a value — and a
// WRITE by reference), two Gets (the second a
// conditioned AREAD1) and one write-back into a reader's own register (its
// WRITE by reference, in a bundle) must equal the frames the commit that
// introduced wire generation 0x06 sent. Over loopback sockets: a link that
// frames nothing sends no conditioned form. Regenerate with
// -update-wire-golden only for a deliberate wire change (a generation bump).
func TestWireGolden(t *testing.T) {
	addrs, servers := startServers(t, 4)
	c, err := Connect(addrs, Options{Faults: 1, Readers: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	rec := &frameRecorder{}
	servers[0].SetBehavior(rec)
	st, err := c.NewStore(StoreOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("pad", strings.Repeat("-", 40)); err != nil { // a table an edit is smaller than
		t.Fatal(err)
	}
	for _, v := range []string{"v1", "v2"} {
		if err := st.Put("k", v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if v, err := st.Get("k"); err != nil || v != "v2" {
			t.Fatalf("Get = %q, %v", v, err)
		}
	}
	// The write-back, as core.Reader issues it: both write phases addressed at
	// reader 2's own register of instance 0.
	wb := regular.NewWriterAt(c.rounder(types.Reader(2), 0), c.th, types.ReaderReg(2), 0, types.At(4))
	back := types.Pair{TS: types.At(5), Val: core.EncodePair(types.Pair{TS: types.TS{Seq: 3, WID: 1}, Val: "x"})}
	if err := wb.WritePair(back); err != nil {
		t.Fatal(err)
	}

	// Object 1 may be the one every quorum formed without: closing the
	// transport delivers what is queued for it and waits for it to hang up.
	c.Close()
	got := strings.Join(rec.frames, "\n") + "\n"
	const path = "testdata/wire_golden.txt"
	if *updateWireGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				w := "(none)"
				if i < len(wl) {
					w = wl[i]
				}
				t.Fatalf("request %d of %d differs from the golden frames (%d):\n got %s\nwant %s", i+1, len(gl)-1, len(wl)-1, gl[i], w)
			}
		}
		t.Fatalf("sent %d requests, golden has %d", len(gl)-1, len(wl)-1)
	}
}
