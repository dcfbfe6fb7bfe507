package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// quartileSpread is the distance between the first and third quartile of v
// as a share of its median, the quartiles as Python's statistics.quantiles(v,
// n=4) gives them.
func quartileSpread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / median(s)
}

// repeatCheck runs two back-to-back sets of k timed runs of every workload,
// each run on another seed, and prints for every end-to-end metric both
// medians, each set's quartile spread, the disagreement of the medians and
// the declared bound. It returns 1 when a disagreement, or the spread of a
// metric other than setup_s, exceeds its bound — the driver's acceptance
// test, run here first.
func repeatCheck(k int, seed int64, window time.Duration) int {
	var sets [2]map[string]map[string][]float64 // set → workload → metric → values
	for set := range sets {
		sets[set] = map[string]map[string][]float64{}
		for _, w := range workloads {
			values := map[string][]float64{}
			sets[set][w.name] = values
			for i := 0; i < k; i++ {
				res, err := measure(timedRun(w, seed+int64(set*k+i), window))
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 2
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d of %d ops failed\n", w.name, res.info.Seed, res.Failed, res.Attempted)
					return 1
				}
				for name, v := range res.Metrics {
					values[name] = append(values[name], v.Value)
				}
				fmt.Fprintf(os.Stderr, "set %d %s run %d/%d done\n", set+1, w.name, i+1, k)
			}
		}
	}
	exit := 0
	fmt.Printf("%-14s %-14s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median 1", "median 2", "spread1", "spread2", "disagree", "bound")
	for _, w := range workloads {
		for _, def := range endToEnd {
			a, b := sets[0][w.name][def.name], sets[1][w.name][def.name]
			ma, mb := median(a), median(b)
			sa, sb := quartileSpread(a), quartileSpread(b)
			disagree := math.Abs(mb-ma) / ma
			verdict := ""
			if disagree > def.bound || (def.name != "setup_s" && math.Max(sa, sb) > def.bound) {
				verdict, exit = "  EXCEEDED", 1
			}
			fmt.Printf("%-14s %-14s %12.3f %12.3f %8.3f %8.3f %8.3f %6.2f%s\n", w.name, def.name, ma, mb, sa, sb, disagree, def.bound, verdict)
		}
	}
	return exit
}
