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
// of the client whose operation crossed the event's threshold (the harness
// serializes apply calls); quiesce restores every object to
// healthy-and-connected and waits until the cluster is reachable again, so
// the quiescent agreement reads run fault-free. It is the same on every
// runtime: link and behavior faults go to the object's Host (setFault), and
// wipe + repair and the membership events run the operator's own calls —
// Repair, Leave, Join, Move, through a client cluster with a process identity
// of its own — beside the workload. What the runtimes differ in is machines.
type controller struct {
	seed     int64
	shards   int
	operator *robustatomic.Cluster
	machines
}

// machines is how a runtime makes, kills and restarts the objects under
// torture, and how it lets the clients' transports catch up with that.
type machines interface {
	// host returns the object serving slot sid (nil while it is killed).
	host(sid int) *server.Host
	// kill stops slot sid's object; what it held survives it.
	kill(sid int)
	// restart brings slot sid's object back on its address: from what
	// survived, or blank — the machine was lost, a new one took its place.
	restart(sid int, blank bool) error
	// fresh starts a blank object for slot sid on a new address, in no
	// configuration yet; promote makes it the slot's (the operator's Join or
	// Move decided so) and stops for good whatever served the slot before.
	fresh(sid int) (addr string, err error)
	promote(sid int)
	// settle lets the clients' transports catch up: over sockets d of real
	// time (a redial backoff, the in-flight message skew), on the simulator
	// the delivery of everything in transit.
	settle(d time.Duration)
	close()
}

// repairAttempts bounds EvRepair's retries, a quarter of a second apart: the
// operator's mux redials a restarted daemon only after tcpnet.DialBackoff, and
// a fast workload can reach the event while earlier restarts are still inside
// that window.
const repairAttempts = 16

func (c *controller) apply(ev Event) error {
	switch ev.Kind {
	case EvKill:
		c.kill(ev.Sid)
	case EvRestart:
		if err := c.restart(ev.Sid, false); err != nil {
			return err
		}
		// Client muxes marked the killed daemon unreachable and redial only
		// after DialBackoff. The schedule's windows are op counts, not wall
		// times, and a fast workload can open the next fault window while
		// this backoff still holds — two objects effectively down, beyond
		// the t=1 budget the schedule promises. Hold the event lock for a
		// backoff window so the cluster is whole before the next fault.
		c.settle(tcpnet.DialBackoff + 200*time.Millisecond)
	case EvWipe:
		// Machine replacement: everything the object held is lost, a blank one
		// comes up on the old address.
		c.kill(ev.Sid)
		return c.restart(ev.Sid, true)
	case EvRepair:
		var err error
		for attempt := 0; attempt < repairAttempts; attempt++ {
			if _, err = c.operator.Repair(ev.Sid, c.shards); err == nil {
				return nil
			}
			c.settle(250 * time.Millisecond)
		}
		return fmt.Errorf("torture: repair s%d: %w", ev.Sid, err)
	case EvLeave:
		// Vacate the slot first — the config write still counts the leaving
		// object toward its quorum — then kill it for real. Clients at the
		// old epoch chase the wrong-epoch redirect to the vacancy config.
		if _, err := c.operator.Leave(ev.Sid); err != nil {
			return fmt.Errorf("torture: leave s%d: %w", ev.Sid, err)
		}
		c.kill(ev.Sid)
		c.settle(20 * time.Millisecond)
	case EvJoin:
		// A genuinely fresh machine: blank, new address. Join migrates every
		// register instance to it before the config admits it.
		addr, err := c.fresh(ev.Sid)
		if err != nil {
			return err
		}
		// The migration's quorum reads ride the operator cluster's mux, which
		// may still hold dial backoff from this window's kill; let it heal.
		c.settle(tcpnet.DialBackoff + 200*time.Millisecond)
		if _, _, err := c.operator.Join(addr, c.shards); err != nil {
			return fmt.Errorf("torture: join %s: %w", addr, err)
		}
		c.promote(ev.Sid)
	case EvReplace:
		// Live replace: fresh object up, state migrated, the single-slot Move
		// decided, and only then the departing object killed — the slot is
		// populated throughout and the fault budget never pays for it.
		addr, err := c.fresh(ev.Sid)
		if err != nil {
			return err
		}
		if _, _, err := c.operator.Move(ev.Sid, addr, c.shards); err != nil {
			return fmt.Errorf("torture: replace s%d with %s: %w", ev.Sid, addr, err)
		}
		c.promote(ev.Sid)
		c.settle(20 * time.Millisecond)
	default:
		if err := setFault(c.host(ev.Sid), ev, c.seed); err != nil {
			return err
		}
		if closesWindow(ev.Kind) {
			c.settle(20 * time.Millisecond)
		}
	}
	return nil
}

func (c *controller) quiesce(s int) error {
	for sid := 1; sid <= s; sid++ {
		if c.host(sid) == nil {
			if err := c.restart(sid, false); err != nil {
				return err
			}
		}
		whole(c.host(sid))
	}
	// Client muxes to a restarted daemon redial only after DialBackoff;
	// wait it out so the agreement reads run against the full quorum.
	c.settle(2 * tcpnet.DialBackoff)
	return nil
}

func (c *controller) close() {
	c.operator.Close()
	c.machines.close()
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
		b, err := server.NamedBehavior(ev.Behavior, rng(1), 0.5)
		if err != nil {
			return fmt.Errorf("torture: %w", err)
		}
		h.SetBehavior(b)
	case EvClearChaos:
		h.SetBehavior(nil)
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
	h.SetNetem(nil, 0, 0, 0)
}

// simMachines are the objects of a simulation (the client processes reach
// them over its scheduled link). An object there has no disk: killed, it is
// unmounted with its state — requests to its address fail at once, as to a
// closed port — and mounted again at restart, which is exactly a crash that
// preserved it; lost, it is replaced under its address by a blank one. Events
// are applied by the running client goroutine; nothing here sleeps.
type simMachines struct {
	sim   *sim.Sim
	addrs []string       // slot sid-1
	down  []*server.Host // slot sid-1: the killed object, until it restarts
	next  string         // fresh's address, until promote
}

func (m *simMachines) mount(sid int) *tcpnet.Mount {
	return m.sim.Registry().Resolve(m.addrs[sid-1])
}

func (m *simMachines) host(sid int) *server.Host { return m.mount(sid).Load() }

func (m *simMachines) kill(sid int) { m.down[sid-1] = m.mount(sid).Swap(nil) }

func (m *simMachines) restart(sid int, blank bool) error {
	if blank {
		m.down[sid-1], _ = server.NewHost(sid, nil) // no disk, nothing to recover
	}
	m.mount(sid).Store(m.down[sid-1])
	return nil
}

func (m *simMachines) fresh(sid int) (string, error) {
	m.next, _ = m.sim.AddHost(sid)
	return m.next, nil
}

func (m *simMachines) promote(sid int) {
	m.kill(sid) // a slot that was vacant holds an object long dead: no harm
	m.addrs[sid-1] = m.next
}

func (m *simMachines) settle(time.Duration) { m.sim.Drain() }

func (m *simMachines) close() { m.sim.Close() }

// tcpMachines are real TCP daemons with persist data dirs. Kill closes a
// daemon (its data dir survives), restart recovers it from the preserved WAL
// on the same address — blank: after deleting the data dir — and a fresh one
// gets a new port and a new directory.
type tcpMachines struct {
	root    string   // base directory for data dirs
	addrs   []string // index sid-1; tracks the ACTIVE configuration's addresses
	dirs    []string
	gen     []int            // per-slot replacement generation (names fresh data dirs)
	servers []*tcpnet.Server // index sid-1; nil while killed
	next    *tcpnet.Server   // fresh's daemon, until promote
	nextDir string
}

func (m *tcpMachines) host(sid int) *server.Host {
	if s := m.servers[sid-1]; s != nil {
		return s.Host
	}
	return nil
}

func (m *tcpMachines) kill(sid int) {
	m.servers[sid-1].Close()
	m.servers[sid-1] = nil
}

// start runs a daemon for object sid on addr over dir.
func start(sid int, addr, dir string) (*tcpnet.Server, error) {
	return tcpnet.NewServerWith(sid, addr, tcpnet.ServerOptions{DataDir: dir, Fsync: persist.FsyncOff})
}

// restart rebinds the old address, which may linger briefly after Close:
// retried under a deadline.
func (m *tcpMachines) restart(sid int, blank bool) error {
	if blank {
		if err := os.RemoveAll(m.dirs[sid-1]); err != nil {
			return fmt.Errorf("torture: wipe s%d: %w", sid, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		s, err := start(sid, m.addrs[sid-1], m.dirs[sid-1])
		if err == nil {
			m.servers[sid-1] = s
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("torture: restart s%d on %s: %w", sid, m.addrs[sid-1], err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (m *tcpMachines) fresh(sid int) (string, error) {
	m.gen[sid-1]++
	m.nextDir = filepath.Join(m.root, fmt.Sprintf("s%d.g%d", sid, m.gen[sid-1]))
	srv, err := start(sid, "127.0.0.1:0", m.nextDir)
	if err != nil {
		return "", fmt.Errorf("torture: fresh daemon for slot %d: %w", sid, err)
	}
	m.next = srv
	return srv.Addr(), nil
}

func (m *tcpMachines) promote(sid int) {
	if m.servers[sid-1] != nil {
		m.kill(sid)
	}
	m.servers[sid-1], m.addrs[sid-1], m.dirs[sid-1], m.next = m.next, m.next.Addr(), m.nextDir, nil
}

func (m *tcpMachines) settle(d time.Duration) { time.Sleep(d) }

func (m *tcpMachines) close() {
	for _, s := range append(m.servers, m.next) {
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
	ctrl   *controller
	tracer *obs.Tracer
	clients
}

// clients is how the workload's clients run: started with Go, paused with
// Sleep, waited for with Run(nil), and excluding each other with Lock. A live
// rig's are the simulation's, a tcp rig's run in real time.
type clients interface {
	Go(fn func())
	Sleep(d time.Duration)
	Run(until func() bool) error
	sync.Locker
}

// simClients are the simulation's client goroutines; their lock parks where a
// sync.Mutex would block the one goroutine the scheduler runs.
type simClients struct {
	*sim.Sim
	locked bool
}

func (c *simClients) Lock() {
	c.Until(func() bool { return !c.locked })
	c.locked = true
}
func (c *simClients) Unlock() { c.locked = false }

type realTime struct {
	sync.WaitGroup
	sync.Mutex
}

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
	// operator's (Repair, Leave, Join, Move, Doctor).
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

	s := 3*cfg.Faults + 1
	ctl := &controller{seed: cfg.Seed, shards: cfg.Shards}
	var procs []*robustatomic.Cluster
	var cl clients
	switch cfg.Mode {
	case ModeLive:
		sm := sim.New(sim.Config{Servers: s})
		sm.Seed(cfg.Seed)
		sm.SetLatency(0, 200*time.Microsecond)
		ctl.machines = &simMachines{sim: sm, addrs: sm.Addrs(), down: make([]*server.Host, s)}
		cl = &simClients{Sim: sm}
		root, err := robustatomic.NewSimCluster(sm, opts(0))
		if err != nil {
			return nil, err
		}
		procs = append(procs, root)
		for p := 1; p <= nProcs; p++ {
			sib, err := root.Sibling(opts(p))
			if err != nil {
				return nil, err
			}
			procs = append(procs, sib)
		}

	case ModeTCP:
		m := &tcpMachines{root: dir, addrs: make([]string, s), dirs: make([]string, s), gen: make([]int, s), servers: make([]*tcpnet.Server, s)}
		ctl.machines, cl = m, &realTime{}
		for i := 0; i < s; i++ {
			m.dirs[i] = filepath.Join(dir, fmt.Sprintf("s%d", i+1))
			srv, err := start(i+1, "127.0.0.1:0", m.dirs[i])
			if err != nil {
				m.close()
				return nil, err
			}
			m.servers[i], m.addrs[i] = srv, srv.Addr()
		}
		for p := 0; p <= nProcs; p++ {
			c, err := robustatomic.Connect(m.addrs, opts(p))
			if err != nil {
				for _, pc := range procs {
					pc.Close()
				}
				m.close()
				return nil, err
			}
			procs = append(procs, c)
		}

	default:
		return nil, fmt.Errorf("torture: unknown mode %q", cfg.Mode)
	}
	ctl.operator = procs[nProcs]
	return &rig{procs: procs[:nProcs], ctrl: ctl, tracer: tracer, clients: cl}, nil
}
