// Package obs is the runtime observability core: allocation-free counters,
// gauges and latency histograms behind a process-global registry with a
// cheap Snapshot, plus sampled per-operation round traces (trace.go) and
// Prometheus/JSON exposition (expose.go).
//
// Design constraints, in order:
//
//  1. The instrumented hot path must stay allocation-free and cheap enough
//     that the E9/E13 benchdiff gate (≤10% regression) passes with
//     instrumentation compiled in. Counters and gauges are single atomic
//     adds; histograms are striped mutexes around internal/hdr (whose
//     Record is allocation-free); round latency is sampled 1-in-8 so the
//     two time.Now calls amortize to a few ns per round.
//  2. Metric names ARE the Prometheus exposition keys, label syntax
//     included: a per-label round counter is registered under
//     `proto_rounds_total{transport="mux",label="AREAD2"}` and rendered
//     verbatim. The round family (RoundStats) is kept by each client
//     handle's one round observer, proto.Observed, above the Combiner: a
//     flush round that travelled in a merged frame counts under its own
//     label. The registry stays a flat name→metric map, the renderers
//     stay trivial, and name construction (the only allocating step)
//     happens once per (metric, label) at first use, never per event.
//  3. One process-global Default registry. Tests that need isolation (the
//     golden exposition test) build private registries; everything else —
//     daemons, clients, benchmarks — shares Default so `storaged
//     -debug-addr` and `storbench -obs` see the whole process.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"robustatomic/internal/hdr"
)

// Counter is a monotonically increasing event count.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n ≥ 0 for honest counters; not enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level that moves both ways (in-flight waiters,
// open connections).
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set overwrites the level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// gaugeFunc is a callback gauge: sampled at snapshot time, registered by
// components that already track the level themselves (a server's register
// count). Callbacks must be safe to call at any time, including after the
// owning component closed (they are unregistered on Close, but a snapshot
// may race the close).
type gaugeFunc struct{ fn func() int64 }

// histStripes spreads concurrent Record calls over independent mutexes so a
// few hundred client goroutines recording op latency don't serialize on one
// lock. hdr.Histogram is ~15KB, so 4 stripes keep a Hist around 60KB.
const histStripes = 4

// Hist is a concurrency-safe latency histogram: striped mutexes around
// internal/hdr histograms, merged at snapshot time. Values are unitless;
// this repository records microseconds.
type Hist struct {
	stripes [histStripes]histStripe
}

type histStripe struct {
	mu sync.Mutex
	h  hdr.Histogram
}

// Record adds one observation. The stripe is picked from the address of the
// caller's stack slot: goroutine stacks are disjoint, so concurrent
// recorders spread across stripes without sharing a round-robin counter (a
// cross-goroutine cacheline RMW that showed up in the E12 flush profile).
// The conversion to uintptr keeps v on the stack — Record stays
// allocation-free.
func (h *Hist) Record(v int64) {
	s := &h.stripes[(uintptr(unsafe.Pointer(&v))>>10)%histStripes]
	s.mu.Lock()
	s.h.Record(v)
	s.mu.Unlock()
}

// RecordSince records the elapsed time since start, in microseconds.
func (h *Hist) RecordSince(start time.Time) {
	h.Record(time.Since(start).Microseconds())
}

// Merged returns a fresh merge of all stripes (snapshot-time only; it
// allocates a full histogram).
func (h *Hist) Merged() *hdr.Histogram {
	out := &hdr.Histogram{}
	for i := range h.stripes {
		s := &h.stripes[i]
		s.mu.Lock()
		cp := s.h // histograms are flat arrays: a struct copy is a snapshot
		s.mu.Unlock()
		out.Merge(&cp)
	}
	return out
}

// Registry holds named metrics. Get-or-create is lock-free after first use
// (sync.Map fast path); creation and unregistration serialize on a mutex.
type Registry struct {
	mu      sync.Mutex
	metrics sync.Map // string → *Counter | *Gauge | *Hist | gaugeFunc
}

// Default is the process-global registry.
var Default = &Registry{}

// Counter returns the named counter, creating it on first use. Panics if the
// name is already registered as a different kind (a naming bug, not a
// runtime condition).
func (r *Registry) Counter(name string) *Counter {
	if m, ok := r.metrics.Load(name); ok {
		return m.(*Counter)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics.Load(name); ok {
		return m.(*Counter)
	}
	c := &Counter{}
	r.metrics.Store(name, c)
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if m, ok := r.metrics.Load(name); ok {
		return m.(*Gauge)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics.Load(name); ok {
		return m.(*Gauge)
	}
	g := &Gauge{}
	r.metrics.Store(name, g)
	return g
}

// Hist returns the named histogram, creating it on first use.
func (r *Registry) Hist(name string) *Hist {
	if m, ok := r.metrics.Load(name); ok {
		return m.(*Hist)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics.Load(name); ok {
		return m.(*Hist)
	}
	h := &Hist{}
	r.metrics.Store(name, h)
	return h
}

// GaugeFunc registers (or replaces) a callback gauge. Components with a
// bounded lifetime must Unregister on close.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics.Store(name, gaugeFunc{fn})
}

// Unregister removes a metric (callback gauges of closed components).
func (r *Registry) Unregister(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics.Delete(name)
}

// HistView is the snapshot of one histogram.
type HistView struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
	Max   int64   `json:"max"`
}

// Snapshot is a point-in-time copy of a registry. Maps are fresh; mutating
// them does not touch the registry.
type Snapshot struct {
	Counters map[string]int64    `json:"counters"`
	Gauges   map[string]int64    `json:"gauges"`
	Hists    map[string]HistView `json:"hists"`
}

// Snapshot copies every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
		Hists:    map[string]HistView{},
	}
	r.metrics.Range(func(k, v any) bool {
		name := k.(string)
		switch m := v.(type) {
		case *Counter:
			snap.Counters[name] = m.Value()
		case *Gauge:
			snap.Gauges[name] = m.Value()
		case gaugeFunc:
			snap.Gauges[name] = m.fn()
		case *Hist:
			h := m.Merged()
			snap.Hists[name] = HistView{
				Count: h.Count(),
				Mean:  h.Mean(),
				P50:   h.Quantile(0.50),
				P90:   h.Quantile(0.90),
				P99:   h.Quantile(0.99),
				Max:   h.Max(),
			}
		}
		return true
	})
	return snap
}

// Names returns the sorted metric names of a snapshot section union.
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Hists))
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	for n := range s.Hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// latSample is the round-latency sampling rate: 1-in-8 rounds pay the two
// time.Now calls, keeping the amortized cost a few ns per round while still
// filling latency histograms quickly at benchmark rates.
const latSample = 8

// RoundStats bundles the per-(transport, label) round metrics. The round
// observer (proto.Observed) caches these per client handle (StatsCache) so
// the per-round cost is a short scan plus atomic adds — no name
// construction, no registry lookup, no allocation.
type RoundStats struct {
	Rounds *Counter // rounds completed (ok or not)
	Errs   *Counter // rounds that returned an error
	Lat    *Hist    // sampled latency of successful rounds, µs
	tick   atomic.Uint64
}

// NewRoundStats builds (once per transport+label) the round metric family
//
//	proto_rounds_total{transport="T",label="L"}
//	proto_round_errors_total{transport="T",label="L"}
//	proto_round_latency_us{transport="T",label="L"}
func NewRoundStats(r *Registry, transport, label string) *RoundStats {
	tag := `{transport="` + transport + `",label="` + label + `"}`
	return &RoundStats{
		Rounds: r.Counter("proto_rounds_total" + tag),
		Errs:   r.Counter("proto_round_errors_total" + tag),
		Lat:    r.Hist("proto_round_latency_us" + tag),
	}
}

// Begin starts a round observation: the zero time when this round is not
// latency-sampled (the common case).
func (s *RoundStats) Begin() time.Time {
	if s.tick.Add(1)%latSample != 0 {
		return time.Time{}
	}
	return time.Now()
}

// Done completes a round observation.
func (s *RoundStats) Done(start time.Time, err error) {
	s.Rounds.Inc()
	if err != nil {
		s.Errs.Inc()
		return
	}
	if !start.IsZero() {
		s.Lat.RecordSince(start)
	}
}

// StatsCache resolves a round label to its RoundStats for a single-goroutine
// round executor. A linear scan over a tiny slice beats a map here: a client
// sees at most a handful of distinct labels, the label strings are compiler
// constants shared across calls (so == short-circuits on pointer equality),
// and the per-round registry lookup with its name construction never runs
// after first use.
type StatsCache struct {
	entries []statsEntry
}

type statsEntry struct {
	label string
	st    *RoundStats
}

// Get returns the RoundStats for label, creating and caching it on first
// use. Not safe for concurrent use — one cache per client goroutine.
func (c *StatsCache) Get(r *Registry, transport, label string) *RoundStats {
	for i := range c.entries {
		if c.entries[i].label == label {
			return c.entries[i].st
		}
	}
	st := NewRoundStats(r, transport, label)
	c.entries = append(c.entries, statsEntry{label: label, st: st})
	return st
}
