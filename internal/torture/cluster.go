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
	"robustatomic/internal/tcpnet"
)

// controller applies schedule events to a running cluster. The harness
// serializes apply calls (events fire under its mutex); quiesce restores
// every object to healthy-and-connected and waits until the cluster is
// reachable again, so the quiescent agreement reads run fault-free.
type controller interface {
	apply(ev Event) error
	quiesce() error
	close()
}

// liveCtl tortures the in-process objects through the root cluster handle's
// fault passthroughs. Kill/restart map to partition/heal: an in-process
// object has no disk, so cutting it off and later reconnecting it is exactly
// a crash that preserved its state.
type liveCtl struct {
	root *robustatomic.Cluster
	s    int
}

func (c *liveCtl) apply(ev Event) error {
	switch ev.Kind {
	case EvPartition, EvKill:
		return c.root.Partition(ev.Sid)
	case EvHeal, EvRestart:
		err := c.root.Heal(ev.Sid)
		c.drainWindow()
		return err
	case EvChaos:
		return c.root.InjectFault(ev.Sid, ev.Behavior)
	case EvClearChaos:
		err := c.root.ClearFault(ev.Sid)
		c.drainWindow()
		return err
	case EvNetem:
		return c.root.SetNetem(ev.Sid, ev.Drop, ev.Dup)
	case EvClearNetem:
		err := c.root.SetNetem(ev.Sid, 0, 0)
		c.drainWindow()
		return err
	}
	return fmt.Errorf("torture: event %v unsupported on in-process objects", ev)
}

// drainWindow holds the event lock briefly after a fault window closes.
// Window boundaries are op counts, and under hundreds of concurrent
// clients the gap to the next window can be shorter in wall-clock than a
// round's in-flight message skew (injected delay + queueing): a round that
// already lost its request to the object of the CLOSING window (dropped,
// never retransmitted — down to 3 of 4 possible replies) would then lose a
// still-in-flight request to the NEXT window's object too, and fail below
// quorum. The pause lets in-flight messages land while the cluster is whole,
// so no round ever spans two windows.
func (c *liveCtl) drainWindow() { time.Sleep(20 * time.Millisecond) }

func (c *liveCtl) quiesce() error {
	for sid := 1; sid <= c.s; sid++ {
		if err := c.root.Heal(sid); err != nil {
			return err
		}
		if err := c.root.ClearFault(sid); err != nil {
			return err
		}
		if err := c.root.SetNetem(sid, 0, 0); err != nil {
			return err
		}
	}
	return nil
}

func (c *liveCtl) close() {} // the harness closes the root cluster

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

// chaosRng derives the seeded stream for one object's Byzantine/link
// behavior, so a replayed seed replays the same drop pattern.
func (c *tcpCtl) chaosRng(sid int, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(c.seed*1000003 + int64(sid)*8191 + salt))
}

func (c *tcpCtl) apply(ev Event) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.servers[ev.Sid-1]
	switch ev.Kind {
	case EvPartition:
		s.SetPartitioned(true)
	case EvHeal:
		s.SetPartitioned(false)
		// Same window-straddle hazard as liveCtl.drainWindow: let rounds
		// that lost a message to this window finish before the next opens.
		time.Sleep(20 * time.Millisecond)
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
	case EvChaos:
		if ev.Behavior == "batch-chaos" {
			s.SetBatchChaos(c.chaosRng(ev.Sid, 2), 0.3, true)
			break
		}
		b, err := server.NamedBehavior(ev.Behavior, c.chaosRng(ev.Sid, 1), 0.5)
		if err != nil {
			return fmt.Errorf("torture: %w", err)
		}
		s.SetBehavior(b)
	case EvClearChaos:
		s.SetBehavior(nil)
		s.SetBatchChaos(nil, 0, false)
		time.Sleep(20 * time.Millisecond)
	case EvNetem:
		s.SetNetem(c.chaosRng(ev.Sid, 3), ev.Drop, ev.Dup, time.Duration(ev.DelayUS)*time.Microsecond)
	case EvClearNetem:
		s.SetNetem(nil, 0, 0, 0)
		time.Sleep(20 * time.Millisecond)
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
		return fmt.Errorf("torture: event %v unsupported on tcp daemons", ev)
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
		s := c.servers[sid-1]
		s.SetPartitioned(false)
		s.SetBehavior(nil)
		s.SetBatchChaos(nil, 0, false)
		s.SetNetem(nil, 0, 0, 0)
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
}

func (r *rig) close() {
	r.ctrl.close()
	for _, p := range r.procs {
		p.Close()
	}
}

// setup builds the cluster under torture for cfg: mode live starts the
// in-process objects, reached with seeded message delays, and a Sibling second
// process; mode tcp starts S daemons with persist data dirs under dir and
// Connects each process separately.
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
		delayed := func(p int) robustatomic.Options {
			o := opts(p)
			o.MaxDelay = 200 * time.Microsecond // exercise the delayed link
			return o
		}
		root, err := robustatomic.NewCluster(delayed(0))
		if err != nil {
			return nil, err
		}
		sib, err := root.Sibling(delayed(1))
		if err != nil {
			root.Close()
			return nil, err
		}
		return &rig{
			procs:  []*robustatomic.Cluster{root, sib},
			ctrl:   &liveCtl{root: root, s: root.Objects()},
			tracer: tracer,
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
		return &rig{procs: procs, ctrl: ctl, tracer: tracer}, nil
	}
	return nil, fmt.Errorf("torture: unknown mode %q", cfg.Mode)
}
