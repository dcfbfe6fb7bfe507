// Command bench is the repository's benchmark: it starts the storage objects
// of one cluster in this process on loopback TCP, connects a Store to them
// and drives Put and Get in a closed loop, checking every value read. A run
// with -trace 0 reports the end-to-end metrics, a run with -trace 1 the
// per-layer ones; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

const (
	warmup      = 3 * time.Second
	sliceLength = time.Second
	// setupRuns is how many times a timed run sets up; setup_s is the median.
	setupRuns = 3
	// scratchDir, relative to the checkout the benchmark is run from, holds
	// the build and every run's data directories.
	scratchDir = ".bench_build"
	// traceDir is where a traced run writes its spans.
	traceDir = "bench/out"
)

func main() {
	name := flag.String("workload", "", "workload to run: small_mixed, durable_put, bigtable_read or byz_t2_mixed")
	seed := flag.Int64("seed", 1, "seed of the clients' key and operation streams")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: the traced run, which reports the per-layer metrics")
	repeat := flag.Int("repeat", 0, "run two sets of this many timed runs of every workload and compare their medians")
	flag.Parse()

	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds %d: the measured window is at least one second", *seconds))
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fatal(err)
	}
	if *repeat > 0 {
		os.Exit(repeatCheck(*repeat, *seed, time.Duration(*seconds)*time.Second))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	cfg := timedRun(w, *seed, time.Duration(*seconds)*time.Second)
	cfg.traced = *trace == 1
	res, err := measure(cfg)
	if err != nil {
		fatal(err)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

// timedRun is the configuration of a run as the driver asks for it.
func timedRun(w workload, seed int64, window time.Duration) runConfig {
	// Five samples of each op type per second of window: what a median
	// needs, and a seventh of what the rarest op type (bigtable_read's Puts,
	// ≈ 37 a second) yields, so a slow host does not trip it.
	minSamples := int(5 * window.Seconds())
	return runConfig{
		w: w, seed: seed, warmup: warmup, window: window, slice: sliceLength, setups: setupRuns,
		scratch: scratchDir, minSamples: minSamples, probeCalls: 2000, traceDir: traceDir,
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	info runInfo
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runInfo says where and how a run was made; it is printed on the line before
// the result.
type runInfo struct {
	Workload      string  `json:"workload"`
	Seed          int64   `json:"seed"`
	Traced        bool    `json:"traced"`
	Seconds       float64 `json:"seconds"`
	Clients       int     `json:"clients"`
	GOMAXPROCS    int     `json:"GOMAXPROCS"`
	GoVersion     string  `json:"go_version"`
	NProc         int     `json:"nproc"`
	DataFS        string  `json:"data_dir_filesystem"`
	CalibNsBefore int64   `json:"host.calib_ns_before"`
	CalibNsAfter  int64   `json:"host.calib_ns_after"`
}

// measure performs one run, checks it and computes the metrics of its mode.
func measure(cfg runConfig) (*result, error) {
	if cfg.traced {
		cfg.warmup, cfg.setups = 2*time.Second, 1
	}
	d, err := execute(cfg)
	if err != nil {
		return nil, err
	}
	sum := summarize(d)
	if err := guard(d, sum); err != nil {
		return nil, err
	}
	res := &result{
		Correct: sum.failed == 0 && d.failedOps == 0, Attempted: sum.attempted, Failed: sum.failed,
		Metrics: map[string]metricValue{},
		info: runInfo{
			Workload: cfg.w.name, Seed: cfg.seed, Traced: cfg.traced, Seconds: cfg.window.Seconds(),
			Clients: clients, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
			DataFS: d.dataFS, CalibNsBefore: d.calibBefore, CalibNsAfter: d.calibAfter,
		},
	}
	defs, values := endToEnd, sum.m
	if cfg.traced {
		var atomic bool
		defs = perLayer
		values, atomic, err = layerMetrics(d, sum)
		if err != nil {
			return nil, err
		}
		res.Correct = res.Correct && atomic
	}
	for _, def := range defs {
		res.Metrics[def.name] = metricValue{values[def.name], def.unit}
	}
	return res, nil
}

// print writes every metric by name and unit, then the run's circumstances,
// then the result as one JSON object on the last line.
func (r *result) print(f *os.File) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(f, "%-34s %14.4f %s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	info, _ := json.Marshal(r.info) // a struct of strings and numbers cannot fail to marshal
	fmt.Fprintf(f, "run %s\n", info)
	line, _ := json.Marshal(r)
	fmt.Fprintf(f, "%s\n", line)
}
