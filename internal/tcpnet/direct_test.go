package tcpnet

import (
	"sync"
	"testing"

	"robustatomic/internal/server"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

// recordingWAL is a server.Persister that keeps what it is asked to log.
type recordingWAL struct {
	mu   sync.Mutex
	reqs []wire.Request
}

func (w *recordingWAL) Recover() (map[int]*server.Store, error) {
	return map[int]*server.Store{}, nil
}
func (w *recordingWAL) Sync() error { return nil }
func (w *recordingWAL) Write(req wire.Request) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.reqs = append(w.reqs, req)
	return nil
}
func (w *recordingWAL) WALSize() int64              { return 0 }
func (w *recordingWAL) Rotate() (uint64, error)     { return 0, nil }
func (w *recordingWAL) Commit(uint64, []byte) error { return nil }
func (w *recordingWAL) Close() error                { return nil }

// TestDirectActsAsItsCaller: what an operator's Direct sends carries the
// identity of the process that dialed it, not reader 1's — the object logs
// the seeds under it, and an object that equivocates by client kind answers
// the probes as it answers that process's own rounds.
func TestDirectActsAsItsCaller(t *testing.T) {
	wal := &recordingWAL{}
	host, err := server.NewHost(1, wal)
	if err != nil {
		t.Fatal(err)
	}
	addr, _, _ := startRawServer(t, func(req wire.Request, enc *wire.Encoder) {
		if rsp, send, _, _ := host.Serve(req); send {
			enc.EncodeResponse(rsp)
		}
	})
	p := types.Pair{TS: types.At(3), Val: "seeded"}
	for _, operator := range []types.ProcID{types.Reader(3), types.WriterID(2)} {
		d := direct(addr, operator)
		defer d.Close()
		wal.reqs = nil
		if err := d.Seed(0, p); err != nil {
			t.Fatal(err)
		}
		if len(wal.reqs) != 2 { // PREWRITE and WRITEBACK
			t.Errorf("%v's seed logged %d records, want 2", operator, len(wal.reqs))
		}
		for _, req := range wal.reqs {
			if req.From != operator {
				t.Errorf("%v's seed logged as %v's: %v", operator, req.From, req.Msg.TraceNote())
			}
		}
	}

	// Honest to writers, a frozen (blank) past to readers.
	frozen, err := server.NewStore().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	host.SetBehavior(server.Equivocate{Readers: &server.Stale{Snap: frozen}})
	for operator, want := range map[types.ProcID]types.Pair{types.WriterID(2): p, types.Reader(3): types.BottomPair} {
		d := direct(addr, operator)
		defer d.Close()
		if _, w, err := d.Probe(0); err != nil || w != want {
			t.Errorf("%v's probe of an object equivocating by kind saw w = %v (%v), want %v", operator, w, err, want)
		}
	}
}
