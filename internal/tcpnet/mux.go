// The multiplexed client transport (wire generations 3+).
//
// A Mux is one client process's transport: it pipelines any number of
// concurrent protocol rounds over its one Link (link.go) — sockets to daemons,
// the objects of this process, or the simulator's scheduled link — and keeps
// what those rounds share: the configuration epoch, the request ids, the
// suspicion scoreboard. Mux.round is the one loop over every link.
package tcpnet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"robustatomic/internal/obs"
	"robustatomic/internal/proto"
	"robustatomic/internal/types"
	"robustatomic/internal/wire"
)

// Client-transport observability. The in-flight gauge moves with the waiter
// table (registered on send, released on delivery/abandon/teardown), so it
// is the live pipelining depth across every connection of the process.
var (
	mMuxInFlight  = obs.Default.Gauge("tcpnet_inflight_waiters")
	mMuxConnLost  = obs.Default.Counter("tcpnet_conn_lost_total")
	mMuxTimeouts  = obs.Default.Counter("tcpnet_round_timeout_total")
	mMuxUnsat     = obs.Default.Counter("tcpnet_round_unsat_total")
	mMuxDials     = obs.Default.Counter("tcpnet_dials_total")
	mMuxRedials   = obs.Default.Counter("tcpnet_redials_total")
	mMuxDialFails = obs.Default.Counter("tcpnet_dial_fail_total")
	mMuxTxBytes   = obs.Default.Counter("tcpnet_client_tx_bytes_total")
	mMuxRxBytes   = obs.Default.Counter("tcpnet_client_rx_bytes_total")
	mMuxBatchSubs = obs.Default.Hist("tcpnet_client_batch_subs")
)

// ErrRoundTimeout is returned when a round cannot gather sufficient replies.
var ErrRoundTimeout = errors.New("tcpnet: round timed out")

// ErrConnLost is the distinct failure of in-flight requests whose
// connection died (peer reset, encode error, dropConn): rounds observe it
// immediately, well before their deadline, and can tell a lost connection
// from a slow quorum.
var ErrConnLost = errors.New("tcpnet: connection lost with requests in flight")

// ErrWrongEpoch is the sentinel every WrongEpochError wraps: the round was
// refused by objects whose active configuration supersedes the client's.
// The remedy is a config refetch and a retry — not a backoff.
var ErrWrongEpoch = errors.New("tcpnet: request epoch superseded by a newer configuration")

// WrongEpochError reports a round refused for carrying a stale
// configuration epoch. Epoch is the newest active epoch any refusing
// object reported and Hints their encoded configurations
// (config.Decode-able) — redirect hints only: a Byzantine object can
// fabricate both, so callers must certify a hint by quorum (or re-read the
// config register) before trusting it.
type WrongEpochError struct {
	Label string
	Epoch uint64
	Hints []types.Value
	// Cause is the failure the round would have reported had no refusal
	// arrived — set only when fewer than t+1 objects refused yet the quorum
	// was still denied (connection losses, or an accumulator no further
	// reply can satisfy). In that ambiguous mix the refusals alone do not
	// prove a newer configuration exists: callers whose config refetch
	// finds nothing newer should fall back to Cause (ErrConnLost /
	// ErrRoundTimeout — both retryable) so a lone Byzantine forgery cannot
	// upgrade a transient failure into a hard error. Nil when > t refusals
	// prove the redirect. Deliberately NOT exposed via Unwrap: the error
	// classifies as Reconfig (refetch first), not Transient.
	Cause error
}

// Error implements error.
func (e *WrongEpochError) Error() string {
	return fmt.Sprintf("%v: %s: objects report active epoch %d", ErrWrongEpoch, e.Label, e.Epoch)
}

// Unwrap makes errors.Is(err, ErrWrongEpoch) hold.
func (e *WrongEpochError) Unwrap() error { return ErrWrongEpoch }

// errClientClosed is returned by rounds after Close.
var errClientClosed = errors.New("tcpnet: client closed")

// errNoReply resolves a request whose link knows no reply will ever come
// (the in-memory link: a lost request, a withheld reply). Never returned
// from a round: a round all of whose requests resolved without satisfying
// its accumulator fails as unsatisfiable, at once.
var errNoReply = errors.New("tcpnet: no reply")

// Mux is the multiplexed transport of one client process to a set of storage
// objects. Any number of Clients — and any number of concurrent rounds — share
// it; thousands of register operations share one link per object.
//
// The link's address set is the mux's view of the active configuration
// and may change at runtime (Reconfigure): the slot count S is fixed for the
// mux's lifetime, but a slot's address can be swapped or vacated as the
// cluster reconfigures. Every request is stamped with the configuration epoch
// the mux holds; objects refuse stale stamps with MsgWrongEpoch and rounds
// surface that as a WrongEpochError, which the cluster layer answers with
// a config refetch + Reconfigure + retry.
type Mux struct {
	link   Link
	n      int // slot count, immutable (the fixed-S rule)
	nextID atomic.Uint64
	epoch  atomic.Uint64 // configuration epoch stamped on requests
	cfgMu  sync.Mutex    // serializes Reconfigure (cfgMu, then the link's own lock)
	susp   *scoreboard   // which slots' requests rounds defer (suspicion.go)
	srtt   atomic.Int64  // smoothed latency (ns, on the link's clock) of deferring rounds
}

// NewMux returns a Mux over the daemons at addrs (addrs[i] serves object i+1).
func NewMux(addrs []string) *Mux { return NewLinkMux(len(addrs), newSockLink(addrs)) }

// NewLinkMux returns a Mux whose rounds reach n objects over link.
func NewLinkMux(n int, link Link) *Mux {
	m := &Mux{link: link, n: n, susp: newScoreboard(n)}
	m.epoch.Store(1) // the bootstrap configuration (see internal/config)
	return m
}

// NumServers returns S, the number of storage objects (epoch-invariant).
func (m *Mux) NumServers() int { return m.n }

// Epoch returns the configuration epoch the mux stamps on requests.
func (m *Mux) Epoch() uint64 { return m.epoch.Load() }

// Addrs returns a copy of the mux's address view (slot sid-1 → address, ""
// for vacant slots).
func (m *Mux) Addrs() []string { return m.link.Addrs() }

// Reconfigure installs a newer configuration: the link takes the address view
// (Link.Readdress: what it kept for unchanged slots is untouched), the slots
// that changed forget their suspicion record — a replacement must not inherit
// its predecessor's — and then the mux adopts the epoch, so no round stamps
// the new epoch on a request to an old address. A stale call (epoch not newer
// than the mux's) is a no-op, so racing refetches converge on the newest
// configuration.
func (m *Mux) Reconfigure(epoch uint64, addrs []string) error {
	if len(addrs) != m.n {
		return fmt.Errorf("tcpnet: reconfigure with %d slots, mux has %d (S is fixed)", len(addrs), m.n)
	}
	m.cfgMu.Lock()
	defer m.cfgMu.Unlock()
	if epoch <= m.epoch.Load() {
		return nil
	}
	changed, err := m.link.Readdress(addrs)
	if err != nil {
		return err
	}
	for _, sid := range changed {
		m.susp.reset(sid)
	}
	m.epoch.Store(epoch)
	return nil
}

// Fresh returns a Mux of its own — own link, own scoreboard, the bootstrap
// epoch — over exactly addrs, on the fabric this mux's link runs on: an
// address set nobody vouches for yet is asked without touching this mux's
// connections or its suspicions. The caller closes it.
func (m *Mux) Fresh(addrs []string) *Mux { return NewLinkMux(len(addrs), m.link.Fresh(addrs)) }

// Sleep waits d out on the link's clock; an error means the mux closed first.
func (m *Mux) Sleep(d time.Duration) error {
	t := m.link.NewTimer(d)
	defer t.Stop()
	_, _, err := m.link.Wait(nil, t)
	return err
}

// Framed reports whether a request costs a frame on the mux's link, so that
// batching concurrent rounds saves any (Link.Framed).
func (m *Mux) Framed() bool { return m.link.Framed() }

// Close interrupts every in-flight round and closes the link (Link.Close).
func (m *Mux) Close() { m.link.Close() }

// Client returns a round executor for proc against register instance reg,
// sharing this Mux's link with every other handle.
func (m *Mux) Client(proc types.ProcID, reg int) *Client {
	return &Client{Proc: proc, RoundTimeout: 5 * time.Second, mux: m, reg: reg}
}

// round drives one round (round.go) on the link: it posts the round's
// requests, feeds it their resolutions — out of order across concurrent
// rounds — and the firing of its timer, and deregisters the rest.
func (m *Mux) round(proc types.ProcID, reg int, timeout time.Duration, spec proto.RoundSpec) error {
	// Capacity n: every request resolves at most once, so sends to this
	// channel can never block even after the round abandons it.
	replyCh := make(chan Reply, m.n)
	type sent struct {
		at Sent
		id uint64
	}
	var pending []sent
	defer func() {
		for _, p := range pending {
			p.at.Abandon(p.id)
		}
	}()
	post := func(sid int, req wire.Request, awaited bool) error {
		var ch chan<- Reply
		if awaited {
			ch = replyCh
		}
		at, err := m.link.Send(sid, req, ch)
		if at != nil && awaited {
			pending = append(pending, sent{at, req.ID})
		}
		return err
	}
	var rd round
	wait, err := rd.begin(m, proc, reg, timeout, &spec, post)
	if err != nil {
		return err
	}
	timer := m.link.NewTimer(wait)
	defer timer.Stop()
	for {
		r, fired, err := m.link.Wait(replyCh, timer)
		switch {
		case err != nil:
			return err
		case fired:
			if wait, err = rd.timerFired(post); err != nil {
				return err
			}
			timer.Reset(wait)
		default:
			if done, err := rd.resolve(r, post); done {
				return err
			}
		}
	}
}

// Client executes protocol rounds for one process against one register
// instance, over a Mux shared with other handles (Mux.Client). Operations are
// issued one at a time per handle; any number of handles run concurrently.
type Client struct {
	Proc         types.ProcID
	RoundTimeout time.Duration // default 5s

	mux *Mux
	reg int
	// Rounds counts completed rounds (instrumentation).
	Rounds int
}

var _ proto.Rounder = (*Client)(nil)

// NumServers implements proto.Rounder.
func (c *Client) NumServers() int { return c.mux.NumServers() }

// Round implements proto.Rounder.
func (c *Client) Round(spec proto.RoundSpec) error {
	err := c.mux.round(c.Proc, c.reg, c.RoundTimeout, spec)
	if err == nil {
		c.Rounds++
	}
	return err
}
