package main

import (
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"robustatomic"
	"robustatomic/internal/obs"
)

// runConfig is what one run is asked to do.
type runConfig struct {
	w      workload
	seed   int64
	warmup time.Duration
	window time.Duration // the measured window
	slice  time.Duration // the window is cut into slices of this length
	setups int           // how many times set-up runs; the last cluster is measured
	traced bool
	// scratch is the directory the run may write in; it creates one
	// directory there and removes it before it returns.
	scratch string
	// minSamples is how many successful ops of each type the window must hold.
	minSamples int
	// Traced runs: how many calls each probe makes, and where the spans go.
	probeCalls int
	traceDir   string
}

// sample is the process's state at one slice boundary.
type sample struct {
	at  int64 // ns since base
	cpu int64 // user+system CPU time of this process so far, ns
}

// runData is everything a run observed; metrics are computed from it.
type runData struct {
	cfg     runConfig
	setups  []time.Duration
	recs    []opRec  // every completed op of every client, by end time
	samples []sample // slice boundaries; samples[warm] opens the window
	warm    int      // number of warm-up slices
	// counters at the two ends of the measured window. Client and objects
	// share the registry because they share the process.
	before, after obs.Snapshot
	calibBefore   int64
	calibAfter    int64
	dataFS        string
	failedOps     int
	base          time.Time // the zero of every time in recs and samples

	// Traced runs only.
	tracer     *obs.Tracer
	hookRounds map[string]int64 // completed rounds by label, inside the window
	shardOf    []int            // key → shard
	registers  int              // register instances object 1 hosts
	rttFloorUs float64
}

func (d *runData) windowStart() int64 { return d.samples[d.warm].at }
func (d *runData) windowEnd() int64   { return d.samples[len(d.samples)-1].at }

// inWindow returns the ops that started and ended inside the measured window.
func (d *runData) inWindow() []opRec {
	t1, t2 := d.windowStart(), d.windowEnd()
	var out []opRec
	for _, r := range d.recs {
		if r.start >= t1 && r.end <= t2 {
			out = append(out, r)
		}
	}
	return out
}

// tracedSlice reports whether ns falls in a slice of the window during which
// the tracer was on: every second slice, so that host drift hits traced and
// untraced operations alike.
func (d *runData) tracedSlice(ns int64) bool {
	i := sort.Search(len(d.samples), func(i int) bool { return d.samples[i].at > ns }) - 1
	return i >= d.warm && i < len(d.samples)-1 && (i-d.warm)%2 == 1
}

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// calibrate times a fixed integer-hash kernel. It runs at both ends of every
// run, so a reader can tell a slow host from a slow program.
func calibrate() int64 {
	start := time.Now()
	z := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 7_000_000; i++ {
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z += uint64(i)
	}
	calibSink.Store(z)
	return int64(time.Since(start))
}

var calibSink atomic.Uint64

// execute performs one run and leaves nothing behind on disk.
func execute(cfg runConfig) (d *runData, err error) {
	dir, cleanup, err := tempDir(cfg.scratch, "run-")
	if err != nil {
		return nil, err
	}
	defer cleanup()

	d = &runData{cfg: cfg, dataFS: fsName(dir), calibBefore: calibrate()}
	opts := robustatomic.Options{Seed: cfg.seed}
	var counting atomic.Bool
	var hookMu sync.Mutex
	if cfg.traced {
		d.tracer = obs.NewTracer(1<<16, 0)
		d.hookRounds = map[string]int64{}
		opts.Tracer = d.tracer
		opts.RoundHook = func(label string) {
			if counting.Load() {
				hookMu.Lock()
				d.hookRounds[label]++
				hookMu.Unlock()
			}
		}
	}

	var cl *cluster
	for i := 0; i < cfg.setups; i++ {
		if cl != nil {
			cl.close()
		}
		var took time.Duration
		cl, took, err = cfg.w.setUp(filepath.Join(dir, fmt.Sprintf("setup%d", i)), opts)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d.setups = append(d.setups, took)
	}
	defer cl.close()
	for _, name := range cl.keys.names {
		d.shardOf = append(d.shardOf, cl.store.ShardOf(name))
	}

	d.base = time.Now()
	d.warm = int(cfg.warmup / cfg.slice)
	slices := d.warm + int(cfg.window/cfg.slice)
	stopAt := int64(slices) * int64(cfg.slice)
	fails := &failureLog{}
	perClient := make([][]opRec, clients)
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed*clients + int64(id)))
			perClient[id] = cl.drive(cfg.w, id, rng, d.base, stopAt, fails)
		}(id)
	}
	// The sampler: at every slice boundary it notes the time and the CPU
	// used; at the window's ends it snapshots the counters; in a traced run
	// it turns the tracer on for every second slice of the window.
	for i := 0; i <= slices; i++ {
		time.Sleep(time.Until(d.base.Add(time.Duration(i) * cfg.slice)))
		if i == d.warm {
			d.before = obs.Default.Snapshot()
		}
		inWindow := i >= d.warm && i < slices
		counting.Store(inWindow)
		if d.tracer != nil {
			if inWindow && (i-d.warm)%2 == 1 {
				d.tracer.SetSample(1)
			} else {
				d.tracer.SetSample(0)
			}
		}
		d.samples = append(d.samples, sample{at: int64(time.Since(d.base)), cpu: cpuNow()})
		if i == slices {
			d.after = obs.Default.Snapshot()
		}
	}
	wg.Wait()
	for _, recs := range perClient {
		d.recs = append(d.recs, recs...)
	}
	sort.Slice(d.recs, func(i, j int) bool { return d.recs[i].end < d.recs[j].end })
	d.failedOps = fails.n
	d.registers = cl.servers[0].Registers()
	if cfg.traced {
		if d.rttFloorUs, err = probeRTTFloor(cfg.w, cfg.probeCalls, cl.addrs()); err != nil {
			return nil, fmt.Errorf("round-trip probe: %w", err)
		}
	}
	d.calibAfter = calibrate()
	return d, nil
}

// tempDir makes a directory under parent that cleanup removes, and that is
// removed as well when the process is interrupted before then.
func tempDir(parent, prefix string) (dir string, cleanup func(), err error) {
	if dir, err = os.MkdirTemp(parent, prefix); err != nil {
		return "", nil, err
	}
	interrupted := make(chan os.Signal, 1)
	signal.Notify(interrupted, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-interrupted:
			os.RemoveAll(dir)
			os.Exit(130)
		case <-done:
		}
	}()
	return dir, func() {
		signal.Stop(interrupted)
		close(done)
		os.RemoveAll(dir)
	}, nil
}

// fsName names the filesystem dir is on.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
