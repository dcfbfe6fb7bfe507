package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestDeclaresWhatTheHarnessEmits holds BENCHMARK.json and the
// harness's own tables together: same workloads, same metrics, same units,
// directions and bounds, in the same order.
func TestManifestDeclaresWhatTheHarnessEmits(t *testing.T) {
	m := readManifest(t)
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if w.Why == "" {
			t.Errorf("workload %s has no why", w.Name)
		}
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", names, want)
	}
	check := func(section string, got []manifestMetric, defs []metricDef, bounded bool) {
		var have []metricDef
		for _, g := range got {
			d := metricDef{name: g.Name, unit: g.Unit, better: g.Better}
			if g.Bound != nil {
				d.bound = *g.Bound
			}
			if (g.Bound != nil) != bounded {
				t.Errorf("%s metric %s: bound present = %v, want %v", section, g.Name, g.Bound != nil, bounded)
			}
			have = append(have, d)
		}
		if !reflect.DeepEqual(have, defs) {
			t.Errorf("%s: BENCHMARK.json declares\n%v\nthe harness emits\n%v", section, have, defs)
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if !reflect.DeepEqual(m.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", m.Paths)
	}
}

func shortRun(t *testing.T, w workload, traced bool, traceOut string) *result {
	t.Helper()
	res, err := measure(runConfig{
		w: w, seed: 7, traced: traced,
		warmup: 100 * time.Millisecond, window: time.Second, slice: 100 * time.Millisecond,
		setups: 1, scratch: t.TempDir(), minSamples: 1, probeCalls: 100, traceDir: traceOut,
	})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func emitted(res *result, defs []metricDef) bool {
	if len(res.Metrics) != len(defs) {
		return false
	}
	for _, d := range defs {
		if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit {
			return false
		}
	}
	return true
}

// TestEveryWorkloadRuns runs each workload briefly with the checks on, and
// one traced run, and compares the metric names that come out with the
// declared ones.
func TestEveryWorkloadRuns(t *testing.T) {
	for _, w := range workloads {
		res := shortRun(t, w, false, "")
		if !emitted(res, endToEnd) {
			t.Errorf("%s: emitted %v", w.name, res.Metrics)
		}
		for _, d := range endToEnd {
			if res.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: %s = %v", w.name, d.name, res.Metrics[d.name].Value)
			}
		}
	}
	w, _ := findWorkload("durable_put")
	traceOut := t.TempDir()
	res := shortRun(t, w, true, traceOut)
	if !emitted(res, perLayer) {
		t.Errorf("traced %s: emitted %v", w.name, res.Metrics)
	}
	if res.Metrics["persist.appends_per_put"].Value <= 0 {
		t.Errorf("traced durable_put logged nothing per Put")
	}
	if _, err := os.Stat(filepath.Join(traceOut, "durable_put.trace.json")); err != nil {
		t.Errorf("trace not written: %v", err)
	}
}
