package main

import (
	"math"
	"sort"
)

// metricDef declares one metric; BENCHMARK.json repeats these tables and
// bench_test.go holds the two together. bound is the share of the parent's
// median by which an end-to-end metric may worsen; layer metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd is what a user of the Store sees, the same on every workload.
// Latencies are medians over every successful op of the measured window, both
// clients merged. The 90th and 99th percentiles and the maximum move with the
// host's phase by more than any bound the manifest may declare (README.md has
// the measurements), so they are recorded as diag.* layer metrics, ungated.
// So is throughput: with two closed-loop clients it is two over the mean
// latency, and the mean follows the tail. cpu_us_per_op is the capacity
// figure that holds. The host drifts by a tenth between runs whatever is
// measured, which is why every bound is the widest the manifest admits.
var endToEnd = []metricDef{
	{"put_p50_us", "us", "lower", 0.25},
	{"get_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// metrics maps a metric's name to its value in its declared unit.
type metrics map[string]float64

// quantile returns the q-quantile of sorted (nearest rank), 0 when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// ratio is a/b, and 0 when b is 0: a layer that did no work reports zeroes.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latenciesUs returns the sorted latencies, in microseconds, of the successful
// Gets (or Puts) among recs.
func latenciesUs(recs []opRec, get bool) []float64 {
	var out []float64
	for _, r := range recs {
		if r.get == get && !r.failed {
			out = append(out, float64(r.end-r.start)/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

// summary is a run's operation count and the end-to-end metrics.
type summary struct {
	attempted, failed int
	puts, gets        int // successful, in the window
	m                 metrics
}

func summarize(d *runData) summary {
	ops := d.inWindow()
	put, get := latenciesUs(ops, false), latenciesUs(ops, true)
	s := summary{attempted: len(ops), puts: len(put), gets: len(get), m: metrics{}}
	s.failed = s.attempted - s.puts - s.gets
	s.m["put_p50_us"] = quantile(put, 0.50)
	s.m["get_p50_us"] = quantile(get, 0.50)

	// Both over the measured window: the ops that completed in it, and the
	// CPU time this process — clients and objects — used in it.
	first, last := d.samples[d.warm], d.samples[len(d.samples)-1]
	done := 0
	for _, r := range d.recs {
		if !r.failed && r.end >= first.at && r.end < last.at {
			done++
		}
	}
	s.m["diag.ops_per_s"] = float64(done) / (float64(last.at-first.at) / 1e9)
	s.m["cpu_us_per_op"] = ratio(float64(last.cpu-first.cpu)/1e3, float64(done))

	setups := make([]float64, len(d.setups))
	for i, t := range d.setups {
		setups[i] = t.Seconds()
	}
	s.m["setup_s"] = median(setups)
	return s
}
