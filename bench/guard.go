package main

import "fmt"

// guard refuses to report numbers from a run that did not exercise what its
// workload is there to exercise.
func guard(d *runData, s summary) error {
	w := d.cfg.w
	delta := func(name string) int64 { return d.after.Counters[name] - d.before.Counters[name] }
	if n := delta("store_flush_noop_total"); n != 0 {
		return fmt.Errorf("%s: %d flushes took the no-op path: some Put rewrote the value its key already held", w.name, n)
	}
	switch appends := delta("persist_wal_appends_total"); {
	case w.durable && appends == 0:
		return fmt.Errorf("%s: no WAL append in the measured window of a durable workload", w.name)
	case !w.durable && appends != 0:
		return fmt.Errorf("%s: %d WAL appends in the measured window of a memory-only workload", w.name, appends)
	}
	if n := delta("tcpnet_round_timeout_total"); n != 0 && !w.byzantine {
		return fmt.Errorf("%s: %d rounds timed out with every object honest", w.name, n)
	}
	if need := d.cfg.minSamples; s.puts < need || s.gets < need {
		return fmt.Errorf("%s: %d Puts and %d Gets in the measured window, need %d of each", w.name, s.puts, s.gets, need)
	}
	return nil
}
