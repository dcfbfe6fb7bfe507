// Command storbench is an open-loop load generator for the keyed Store: it
// issues Put/Get traffic at a fixed target arrival rate (NOT as fast as the
// previous reply allows), so queueing delay shows up in the latency
// distribution instead of silently throttling the offered load — the
// coordinated-omission-free methodology. Latency is measured from each
// operation's SCHEDULED arrival time to its completion and recorded into
// log-bucketed HDR histograms (internal/hdr); a comma-separated -qps list
// sweeps a whole throughput-vs-latency curve in one invocation (E14 in
// EXPERIMENTS.md).
//
// Examples:
//
//	storbench -qps 500,1000,2000,4000 -duration 5s -read-frac 0.9
//	storbench -servers host1:7001,host2:7001,host3:7001,host4:7001 -qps 1000 -format csv
//	storbench -qps 2000 -dist uniform -chaos flaky   # in-process fault drill
//	storbench -preset read-heavy -qps 1000,4000      # adaptive read path sweep
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"robustatomic"
	"robustatomic/internal/hdr"
	"robustatomic/internal/obs"
)

type stepResult struct {
	TargetQPS   int     `json:"target_qps"`
	AchievedQPS float64 `json:"achieved_qps"`
	Ops         int64   `json:"ops"`
	Errors      int64   `json:"errors"`
	P50us       int64   `json:"p50_us"`
	P90us       int64   `json:"p90_us"`
	P99us       int64   `json:"p99_us"`
	P999us      int64   `json:"p999_us"`
	MaxUs       int64   `json:"max_us"`
	MeanUs      float64 `json:"mean_us"`
}

func main() {
	qpsList := flag.String("qps", "1000", "comma-separated target arrival rates to sweep (ops/s)")
	duration := flag.Duration("duration", 5*time.Second, "measured duration per qps step")
	warmup := flag.Duration("warmup", time.Second, "per-step warmup (load offered, latencies discarded)")
	readFrac := flag.Float64("read-frac", 0.9, "fraction of operations that are Gets")
	keys := flag.Int("keys", 1024, "key-space size")
	dist := flag.String("dist", "zipf", "key popularity distribution: zipf | uniform")
	zipfS := flag.Float64("zipf-s", 1.1, "zipf skew parameter (>1; higher = more skewed)")
	valueSize := flag.Int("value-size", 64, "written value size in bytes")
	workers := flag.Int("workers", 64, "concurrent executors draining the arrival queue")
	servers := flag.String("servers", "", "comma-separated daemon addresses (empty = in-process cluster)")
	shards := flag.Int("shards", 16, "Store shards")
	faults := flag.Int("faults", 1, "fault budget t (cluster size 3t+1)")
	readers := flag.Int("readers", 1, "R: the deployment-wide count of client processes (storbench is process 0), not a pool size")
	seed := flag.Int64("seed", 1, "workload RNG seed")
	format := flag.String("format", "table", "output: table | csv | json")
	chaos := flag.String("chaos", "", "in-process only: make object 2 Byzantine (flaky | stale | equivocate | falseelide | silent | garbage)")
	obsDump := flag.Bool("obs", false, "after the sweep, print the client-side obs snapshot (round counts, flush-path mix, mux state)")
	preset := flag.String("preset", "", "workload preset: read-heavy (0.98 Gets, zipf skew 1.3 over 128 keys — drives the adaptive read path: elision, coalescing, table cache); explicitly-set flags win")
	flag.Parse()

	// Presets fill in defaults for flags the user did NOT set explicitly:
	// -preset read-heavy -keys 4096 sweeps a large read-heavy key space.
	if *preset != "" {
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		switch *preset {
		case "read-heavy":
			if !set["read-frac"] {
				*readFrac = 0.98
			}
			if !set["dist"] {
				*dist = "zipf"
			}
			if !set["zipf-s"] {
				*zipfS = 1.3
			}
			if !set["keys"] {
				*keys = 128
			}
		default:
			fmt.Fprintf(os.Stderr, "storbench: unknown -preset %q (want read-heavy)\n", *preset)
			os.Exit(2)
		}
	}

	var targets []int
	for _, f := range strings.Split(*qpsList, ",") {
		q, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || q <= 0 {
			fmt.Fprintf(os.Stderr, "storbench: bad -qps entry %q\n", f)
			os.Exit(2)
		}
		targets = append(targets, q)
	}

	opts := robustatomic.Options{Faults: *faults, Readers: *readers, Seed: *seed}
	var (
		cluster *robustatomic.Cluster
		err     error
	)
	if *servers == "" {
		cluster, err = robustatomic.NewCluster(opts)
	} else {
		cluster, err = robustatomic.Connect(strings.Split(*servers, ","), opts)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "storbench: %v\n", err)
		os.Exit(1)
	}
	defer cluster.Close()
	if *chaos != "" {
		if err := cluster.InjectFault(2, *chaos); err != nil {
			fmt.Fprintf(os.Stderr, "storbench: %v\n", err)
			os.Exit(1)
		}
	}
	store, err := cluster.NewStore(robustatomic.StoreOptions{Shards: *shards})
	if err != nil {
		fmt.Fprintf(os.Stderr, "storbench: %v\n", err)
		os.Exit(1)
	}

	payload := strings.Repeat("x", *valueSize)
	var results []stepResult
	for _, q := range targets {
		results = append(results, runStep(store, q, *duration, *warmup, *readFrac, *keys, *dist, *zipfS, payload, *workers, *seed))
	}
	emit(results, *format)
	if *obsDump {
		fmt.Println("\n== client obs snapshot")
		fmt.Print(obs.Default.Snapshot().Format())
	}
}

// runStep offers load at target ops/s for warmup+duration and returns the
// measured-window statistics.
func runStep(store *robustatomic.Store, target int, duration, warmup time.Duration, readFrac float64, keys int, dist string, zipfS float64, payload string, workers int, seed int64) stepResult {
	interval := time.Duration(int64(time.Second) / int64(target))
	total := int((warmup + duration).Seconds() * float64(target))
	arrivals := make(chan time.Time, total+workers) // full-depth buffer keeps the loop open
	var errs atomic.Int64

	hists := make([]*hdr.Histogram, workers)
	var wg sync.WaitGroup
	start := time.Now()
	measureFrom := start.Add(warmup)
	for w := 0; w < workers; w++ {
		hists[w] = &hdr.Histogram{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*7919))
			zipf := rand.NewZipf(rng, zipfS, 1, uint64(keys-1))
			h := hists[w]
			for sched := range arrivals {
				var k uint64
				if dist == "uniform" {
					k = uint64(rng.Intn(keys))
				} else {
					k = zipf.Uint64()
				}
				key := fmt.Sprintf("key%06d", k)
				var err error
				if rng.Float64() < readFrac {
					_, err = store.Get(key)
				} else {
					err = store.Put(key, payload)
				}
				if sched.Before(measureFrom) {
					continue
				}
				if err != nil {
					errs.Add(1)
					continue
				}
				h.Record(time.Since(sched).Microseconds())
			}
		}(w)
	}

	// Open-loop arrival process: operation i is due at start + i·interval,
	// independent of how the previous operations fared.
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		arrivals <- due
	}
	close(arrivals)
	wg.Wait()

	merged := &hdr.Histogram{}
	for _, h := range hists {
		merged.Merge(h)
	}
	elapsed := time.Since(measureFrom)
	return stepResult{
		TargetQPS:   target,
		AchievedQPS: float64(merged.Count()) / elapsed.Seconds(),
		Ops:         merged.Count(),
		Errors:      errs.Load(),
		P50us:       merged.Quantile(0.50),
		P90us:       merged.Quantile(0.90),
		P99us:       merged.Quantile(0.99),
		P999us:      merged.Quantile(0.999),
		MaxUs:       merged.Max(),
		MeanUs:      merged.Mean(),
	}
}

func emit(results []stepResult, format string) {
	switch format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(results)
	case "csv":
		fmt.Println("target_qps,achieved_qps,ops,errors,p50_us,p90_us,p99_us,p999_us,max_us,mean_us")
		for _, r := range results {
			fmt.Printf("%d,%.1f,%d,%d,%d,%d,%d,%d,%d,%.1f\n",
				r.TargetQPS, r.AchievedQPS, r.Ops, r.Errors, r.P50us, r.P90us, r.P99us, r.P999us, r.MaxUs, r.MeanUs)
		}
	default:
		fmt.Printf("%10s %12s %8s %7s %9s %9s %9s %9s %9s\n",
			"target", "achieved", "ops", "errors", "p50", "p90", "p99", "p99.9", "max")
		for _, r := range results {
			fmt.Printf("%10d %12.1f %8d %7d %8dµs %8dµs %8dµs %8dµs %8dµs\n",
				r.TargetQPS, r.AchievedQPS, r.Ops, r.Errors, r.P50us, r.P90us, r.P99us, r.P999us, r.MaxUs)
		}
	}
}
