package robustatomic

import (
	"encoding/hex"
	"flag"
	"os"
	"strings"
	"sync"
	"testing"

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
// from ⊥: its PREWRITE carries the table; then the certified read — a READ1
// offering the committer's own pair — a PREWRITE by splice — one inserting an
// entry, one replacing a value — and a WRITE by reference), two Gets (the
// second a conditioned AREAD1) and one write-back of the shard's head (both
// phases by reference, bare: the shard's one register) must equal the frames
// of the fixture.
// Over loopback sockets: a link that frames nothing sends no conditioned
// form. Regenerate with -update-wire-golden only for a deliberate change of
// what the client sends (a wire generation bump, a round added or removed).
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
	// The write-back, as core.Reader issues it: both write phases of the
	// shard's head, at its own timestamp, by reference, into the shard's
	// register.
	sh, err := st.shards.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	head := sh.base
	if err := regular.WriteBack(c.rounder(types.Reader(2), 1), c.th, types.WriterReg, head, 0, head.Val.Digest()); err != nil {
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
