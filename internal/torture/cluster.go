package torture

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"robustatomic"
	"robustatomic/internal/obs"
	"robustatomic/internal/persist"
	"robustatomic/internal/server"
	"robustatomic/internal/sim"
	"robustatomic/internal/tcpnet"
)

// controller applies schedule events to a running cluster, on the goroutine
// of the client whose operation crossed the event's threshold. The harness
// serializes apply calls (events fire under its mutex); quiesce restores
// every object to healthy-and-connected and waits until the cluster is
// reachable again, so the quiescent agreement reads run fault-free.
type controller interface {
	apply(ev Event) error
	quiesce() error
	close()
}

// setFault applies a link or behavior fault event to object h — the part of
// the schedule that is the same on every runtime. The object's Byzantine and
// link behaviors draw from streams derived from the schedule's seed, so a
// replayed seed replays the same drop pattern.
func setFault(h *server.Host, ev Event, seed int64) error {
	rng := func(salt int64) *rand.Rand {
		return rand.New(rand.NewSource(seed*1000003 + int64(ev.Sid)*8191 + salt))
	}
	switch ev.Kind {
	case EvPartition:
		h.SetPartitioned(true)
	case EvHeal:
		h.SetPartitioned(false)
	case EvChaos:
		if ev.Behavior == "batch-chaos" {
			h.SetBatchChaos(rng(2), 0.3, true)
			break
		}
		b, err := server.NamedBehavior(ev.Behavior, rng(1), 0.5)
		if err != nil {
			return fmt.Errorf("torture: %w", err)
		}
		h.SetBehavior(b)
	case EvClearChaos:
		h.SetBehavior(nil)
		h.SetBatchChaos(nil, 0, false)
	case EvNetem:
		h.SetNetem(rng(3), ev.Drop, ev.Dup, time.Duration(ev.DelayUS)*time.Microsecond)
	case EvClearNetem:
		h.SetNetem(nil, 0, 0, 0)
	default:
		return fmt.Errorf("torture: event %v unsupported on this runtime", ev)
	}
	return nil
}

// closesWindow reports the events that end a fault window. Window boundaries
// are op counts, and under hundreds of concurrent clients the gap to the next
// window can be shorter than a round's in-flight message skew: a round that
// already lost its request to the object of the CLOSING window (dropped, never
// retransmitted — down to 3 of 4 possible replies) would then lose a
// still-in-flight request to the NEXT window's object too, and fail below
// quorum. So a controller lets what is in flight land while the cluster is
// whole — no round spans two windows.
func closesWindow(k EventKind) bool { return k == EvHeal || k == EvClearChaos || k == EvClearNetem }

// whole restores object h to healthy-and-connected.
func whole(h *server.Host) {
	h.SetPartitioned(false)
	h.SetBehavior(nil)
	h.SetBatchChaos(nil, 0, false)
	h.SetNetem(nil, 0, 0, 0)
}

// liveCtl tortures the objects of a simulation (the client processes reach
// them over its scheduled link). Kill/restart map to partition/heal: an
// in-process object has no disk, so cutting it off and later reconnecting it
// is exactly a crash that preserved its state. Events are applied by the
// running client goroutine, and a closing window drains by delivering what is
// in transit: nothing here sleeps.
type liveCtl struct {
	sim  *sim.Sim
	seed int64
}

func (c *liveCtl) apply(ev Event) error {
	switch ev.Kind {
	case EvKill:
		ev.Kind = EvPartition
	case EvRestart:
		ev.Kind = EvHeal
	}
	err := setFault(c.sim.Hosts()[ev.Sid-1], ev, c.seed)
	if closesWindow(ev.Kind) {
		c.sim.Drain()
	}
	return err
}

func (c *liveCtl) quiesce() error {
	for _, h := range c.sim.Hosts() {
		whole(h)
	}
	return nil
}

func (c *liveCtl) close() { c.sim.Close() }

// tcpCtl tortures real TCP daemons. Kill closes a daemon (its data dir
// survives), restart recovers it from the preserved WAL on the same address,
// wipe deletes the data dir before the blank restart, and repair
// reconstitutes the blank object from the live quorum via the operator's
// client cluster, a process identity of its own.
type tcpCtl struct {
	mu       sync.Mutex
	seed     int64
	root     string   // base directory for data dirs
	addrs    []string // index sid-1; tracks the ACTIVE configuration's addresses
	dirs     []string
	gen      []int            // per-slot replacement generation (names fresh data dirs)
	servers  []*tcpnet.Server // index sid-1; nil while killed
	operator *robustatomic.Cluster
	shards   int
}

func (c *tcpCtl) apply(ev Event) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.servers[ev.Sid-1]
	switch ev.Kind {
	case EvKill:
		s.Close()
		c.servers[ev.Sid-1] = nil
	case EvRestart:
		if err := c.restart(ev.Sid); err != nil {
			return err
		}
		// Client muxes marked the killed daemon unreachable and redial only
		// after DialBackoff. The schedule's windows are op counts, not wall
		// times, and a fast workload can open the next fault window while
		// this backoff still holds — two objects effectively down, beyond
		// the t=1 budget the schedule promises. Hold the event lock for a
		// backoff window so the cluster is whole before the next fault.
		time.Sleep(tcpnet.DialBackoff + 200*time.Millisecond)
	case EvWipe:
		s.Close()
		c.servers[ev.Sid-1] = nil
		if err := os.RemoveAll(c.dirs[ev.Sid-1]); err != nil {
			return fmt.Errorf("torture: wipe s%d: %w", ev.Sid, err)
		}
		return c.restart(ev.Sid)
	case EvRepair:
		// Repair's quorum read runs over the operator cluster's mux,
		// which redials a restarted daemon only after DialBackoff — and a
		// fast workload can reach this event while earlier restarts are
		// still inside that backoff. Retry past a full backoff window
		// rather than failing the schedule on a read the mux will satisfy
		// moments later.
		var err error
		deadline := time.Now().Add(3*tcpnet.DialBackoff + time.Second)
		for {
			if _, err = c.operator.Repair(ev.Sid, c.shards); err == nil {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("torture: repair s%d: %w", ev.Sid, err)
			}
			time.Sleep(250 * time.Millisecond)
		}
	case EvLeave:
		// Vacate the slot first — the config write still counts the leaving
		// daemon toward its quorum — then kill it for real. Clients at the
		// old epoch chase the wrong-epoch redirect to the vacancy config.
		if _, err := c.operator.Leave(ev.Sid); err != nil {
			return fmt.Errorf("torture: leave s%d: %w", ev.Sid, err)
		}
		s.Close()
		c.servers[ev.Sid-1] = nil
		time.Sleep(20 * time.Millisecond)
	case EvJoin:
		// A genuinely fresh machine: blank data dir, new port. Join migrates
		// every register instance to it before the config admits it.
		srv, err := c.freshDaemon(ev.Sid)
		if err != nil {
			return err
		}
		// The migration's quorum reads ride the operator cluster's mux, which
		// may still hold dial backoff from this window's kill; let it heal.
		time.Sleep(tcpnet.DialBackoff + 200*time.Millisecond)
		if _, _, err := c.operator.Join(srv.Addr(), c.shards); err != nil {
			srv.Close()
			return fmt.Errorf("torture: join %s: %w", srv.Addr(), err)
		}
		c.servers[ev.Sid-1] = srv
		c.addrs[ev.Sid-1] = srv.Addr()
	case EvReplace:
		// Live replace: fresh daemon up, state migrated, the single-slot Move
		// decided, and only then the departing daemon killed — the slot is
		// populated throughout and the fault budget never pays for it.
		srv, err := c.freshDaemon(ev.Sid)
		if err != nil {
			return err
		}
		if _, _, err := c.operator.Move(ev.Sid, srv.Addr(), c.shards); err != nil {
			srv.Close()
			return fmt.Errorf("torture: replace s%d with %s: %w", ev.Sid, srv.Addr(), err)
		}
		s.Close()
		c.servers[ev.Sid-1] = srv
		c.addrs[ev.Sid-1] = srv.Addr()
		time.Sleep(20 * time.Millisecond)
	default:
		if err := setFault(s.Host, ev, c.seed); err != nil {
			return err
		}
		if closesWindow(ev.Kind) {
			time.Sleep(20 * time.Millisecond)
		}
	}
	return nil
}

// freshDaemon starts slot sid's next-generation daemon: a new port and a
// blank data dir (the old daemon may still be running and holding the
// previous one). Callers hold c.mu and install the server on success.
func (c *tcpCtl) freshDaemon(sid int) (*tcpnet.Server, error) {
	c.gen[sid-1]++
	dir := filepath.Join(c.root, fmt.Sprintf("s%d.g%d", sid, c.gen[sid-1]))
	srv, err := tcpnet.NewServerWith(sid, "127.0.0.1:0", tcpnet.ServerOptions{
		DataDir: dir,
		Fsync:   persist.FsyncOff,
	})
	if err != nil {
		return nil, fmt.Errorf("torture: fresh daemon for slot %d: %w", sid, err)
	}
	c.dirs[sid-1] = dir
	return srv, nil
}

// restart brings daemon sid back on its original address, recovering
// whatever its data dir holds. The old listener may linger briefly after
// Close, so rebinding retries under a deadline. Callers hold c.mu.
func (c *tcpCtl) restart(sid int) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		s, err := tcpnet.NewServerWith(sid, c.addrs[sid-1], tcpnet.ServerOptions{
			DataDir: c.dirs[sid-1],
			Fsync:   persist.FsyncOff,
		})
		if err == nil {
			c.servers[sid-1] = s
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("torture: restart s%d on %s: %w", sid, c.addrs[sid-1], err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (c *tcpCtl) quiesce() error {
	c.mu.Lock()
	for sid := 1; sid <= len(c.servers); sid++ {
		if c.servers[sid-1] == nil {
			if err := c.restart(sid); err != nil {
				c.mu.Unlock()
				return err
			}
		}
		whole(c.servers[sid-1].Host)
	}
	c.mu.Unlock()
	// Client muxes to a restarted daemon redial only after DialBackoff;
	// wait it out so the agreement reads run against the full quorum.
	time.Sleep(2 * tcpnet.DialBackoff)
	return nil
}

func (c *tcpCtl) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.operator != nil {
		c.operator.Close()
	}
	for _, s := range c.servers {
		if s != nil {
			s.Close()
		}
	}
}

// rig is a running cluster under torture: one client cluster handle per
// logical process plus the fault controller. Every process traces every op
// into the shared tracer, so a run failure dumps the round-level anatomy of
// the ops that died next to the seed-replay command.
type rig struct {
	procs  []*robustatomic.Cluster
	ctrl   controller
	tracer *obs.Tracer
	clients
}

// clients is how the workload's clients run: started with Go, paused with
// Sleep, and waited for with Run(nil). A live rig's are the simulation's
// (*sim.Sim), a tcp rig's run in real time.
type clients interface {
	Go(fn func())
	Sleep(d time.Duration)
	Run(until func() bool) error
}

type realTime struct{ sync.WaitGroup }

func (r *realTime) Go(fn func()) {
	r.Add(1)
	go func() {
		defer r.Done()
		fn()
	}()
}
func (*realTime) Sleep(d time.Duration)         { time.Sleep(d) }
func (r *realTime) Run(func() bool) (err error) { r.Wait(); return }

func (r *rig) close() {
	r.ctrl.close()
	for _, p := range r.procs {
		p.Close()
	}
}

// setup builds the cluster under torture for cfg: mode live starts a
// simulation — the objects, the scheduled link with seeded message latencies,
// the clients' scheduler — and a Sibling second process on it; mode tcp starts
// S daemons with persist data dirs under dir and Connects each process
// separately.
func setup(cfg Config, dir string) (*rig, error) {
	// Process identities 0..nProcs-1 are the workload's; nProcs is the
	// operator's (Repair, Leave, Join, Move — tcp only).
	const nProcs = 2
	tracer := obs.NewTracer(64, 1)
	opts := func(p int) robustatomic.Options {
		return robustatomic.Options{
			Faults:   cfg.Faults,
			Readers:  nProcs + 1,
			WriterID: p,
			Seed:     cfg.Seed + int64(p),
			Tracer:   tracer,
		}
	}

	switch cfg.Mode {
	case ModeLive:
		s := sim.New(sim.Config{Servers: 3*cfg.Faults + 1})
		s.Seed(cfg.Seed)
		s.SetLatency(0, 200*time.Microsecond)
		root, err := robustatomic.NewSimCluster(s, opts(0))
		if err != nil {
			return nil, err
		}
		sib, err := root.Sibling(opts(1))
		if err != nil {
			return nil, err
		}
		return &rig{
			procs:   []*robustatomic.Cluster{root, sib},
			ctrl:    &liveCtl{sim: s, seed: cfg.Seed},
			tracer:  tracer,
			clients: s,
		}, nil

	case ModeTCP:
		s := 3*cfg.Faults + 1
		ctl := &tcpCtl{
			seed:    cfg.Seed,
			root:    dir,
			addrs:   make([]string, s),
			dirs:    make([]string, s),
			gen:     make([]int, s),
			servers: make([]*tcpnet.Server, s),
			shards:  cfg.Shards,
		}
		for i := 0; i < s; i++ {
			ctl.dirs[i] = filepath.Join(dir, fmt.Sprintf("s%d", i+1))
			srv, err := tcpnet.NewServerWith(i+1, "127.0.0.1:0", tcpnet.ServerOptions{
				DataDir: ctl.dirs[i],
				Fsync:   persist.FsyncOff,
			})
			if err != nil {
				ctl.close()
				return nil, err
			}
			ctl.servers[i] = srv
			ctl.addrs[i] = srv.Addr()
		}
		procs := make([]*robustatomic.Cluster, 0, nProcs+1)
		for p := 0; p <= nProcs; p++ {
			c, err := robustatomic.Connect(ctl.addrs, opts(p))
			if err != nil {
				for _, pc := range procs {
					pc.Close()
				}
				ctl.close()
				return nil, err
			}
			procs = append(procs, c)
		}
		ctl.operator, procs = procs[nProcs], procs[:nProcs]
		return &rig{procs: procs, ctrl: ctl, tracer: tracer, clients: &realTime{}}, nil
	}
	return nil, fmt.Errorf("torture: unknown mode %q", cfg.Mode)
}
