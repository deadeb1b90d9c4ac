package main

import (
	"fmt"
	"os"
	"time"
)

const (
	// defaultSeconds is BENCHMARK.json's run_seconds: half closed loop, half
	// open loop.
	defaultSeconds = 20
	// warmup is discarded closed-loop time before the measured phase.
	warmup = 2 * time.Second
	// setupRepeats is how many times a run builds and preloads the cluster;
	// setup_s is their median and the last one is measured on.
	setupRepeats = 5
	// maxLateness marks an open-loop run whose scheduler fell behind as invalid:
	// past it the generator, not the system, shaped the arrivals. It gates
	// the median: a generator that cannot keep its schedule is late on every
	// arrival and by ever more, while one stall of a shared host (or one GC
	// mark phase: the scheduler shares two Ps with three replicas) delays a
	// bounded share and shows in loadgen.late_p99_us instead.
	maxLateness = 5 * time.Millisecond
)

// session is one booted, connected and preloaded cluster with its generator.
type session struct {
	c       *cluster
	g       *gen
	stopSwp chan struct{}
}

// setup builds a cluster of n replicas, waits for a leader, dials and
// preloads the fixed key set. Its wall time is setup_s.
func setup(w *workload, n int, sm seams, seed int64, scratch string, tr *tracer) (*session, float64, error) {
	t0 := time.Now()
	c, err := newCluster(w, n, sm, scratch)
	if err != nil {
		return nil, 0, err
	}
	g := newGen(w, c, seed, tr)
	s := &session{c: c, g: g, stopSwp: make(chan struct{})}
	if err := g.connect(); err != nil {
		c.stop()
		return nil, 0, err
	}
	go g.sweepTimeouts(s.stopSwp)
	if err := g.runPreload(60 * time.Second); err != nil {
		s.close()
		return nil, 0, err
	}
	return s, time.Since(t0).Seconds(), nil
}

// close tears the session down: generator first, then replicas and DataDirs.
func (s *session) close() {
	close(s.stopSwp)
	s.g.disconnect()
	s.c.stop()
}

// runUntraced is the end-to-end run: setup (repeated), warm-up, closed-loop
// phase, open-loop phase, drain, oracle.
func runUntraced(w *workload, seed int64, measure time.Duration, scratch string) (result, error) {
	var setups []float64
	var s *session
	for i := range setupRepeats {
		var secs float64
		var err error
		s, secs, err = setup(w, replicas, seams{}, seed, scratch, nil)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, secs)
		if i < setupRepeats-1 {
			s.close()
		}
	}
	defer s.close()
	g := s.g

	closed := g.runClosed(warmup, measure/2)
	open := g.runOpen(measure-measure/2, true)
	all := open.lat.merged()
	fmt.Printf("# %s closed: %d clients, %.0f ops/s mean over %.1fs (p50 %.3f ms); open: %.0f ops/s offered, %d samples, whole-phase p50/p90/p99 %.3f/%.3f/%.3f ms, late p50/p90/p99 %.0f/%.0f/%.0f us, in flight mean %.1f end %.1f; fallbacks %d stale %d state transfers %d\n",
		w.name, w.closedClients, closed.meanOps, closed.seconds, nsToMs(percentile(closed.lat, 50)),
		w.openRate, len(all), nsToMs(percentile(all, 50)), nsToMs(percentile(all, 90)), nsToMs(percentile(all, 99)),
		float64(percentile(open.late, 50))/1e3, float64(percentile(open.late, 90))/1e3, float64(percentile(open.late, 99))/1e3,
		open.inflightMean, open.inflightEnd, g.fallbacks.Load(), g.stale.Load(), s.c.stateTransfers())
	if err := finishRun(s, open); err != nil {
		return result{}, err
	}
	res := result{
		Correct:   true,
		Attempted: g.attempted.Load() + g.abandoned.Load(),
		Failed:    g.timeouts.Load() + g.notOK.Load() + g.abandoned.Load(),
		Metrics: map[string]metric{
			"setup_s":          {medianFloat(setups), "s"},
			"ops_per_s":        {closed.opsPerS, "ops/s"},
			"lat_p50_ms":       {open.lat.windowMedian(50) / 1e6, "ms"},
			"lat_p90_ms":       {open.lat.windowMedian(90) / 1e6, "ms"},
			"write_lat_p90_ms": {open.writeLat.windowMedian(90) / 1e6, "ms"},
		},
	}
	return res, nil
}

// finishRun judges a completed run. An oracle violation — a wrong reply,
// or a replica whose final state does not match what was acknowledged — is
// an error: the run prints no metrics and exits non-zero. A generator that
// lost its schedule or a backlog that grew through the open-loop phase
// makes the latencies meaningless but not wrong; on a shared host that is a
// neighbour's doing more often than the code's, so it is reported on stderr
// (and shows as failed ops, as latency, and as spread in -compare) rather
// than turned into an exit code that would discard the whole series.
func finishRun(s *session, open openResult) error {
	g := s.g
	if err := g.firstErr(); err != nil {
		return err
	}
	if late := percentile(open.late, 50); late > int64(maxLateness) {
		fmt.Fprintf(os.Stderr, "bench: %s: WARNING: invalid run: open-loop scheduler ran %.0f us late at the median (limit %v)\n",
			g.w.name, float64(late)/1e3, maxLateness)
	}
	// An arrival rate the system cannot sustain shows as work in flight that
	// keeps growing until every virtual client is busy. One slow fsync near
	// the end is not that, so the final tenth has to exceed both four times
	// the phase mean and a quarter of the pool.
	if open.inflightEnd > 4*open.inflightMean && open.inflightEnd > float64(g.w.pool)/4 {
		fmt.Fprintf(os.Stderr, "bench: %s: WARNING: invalid run: backlog grew through the open-loop phase (in flight: mean %.1f, final tenth %.1f)\n",
			g.w.name, open.inflightMean, open.inflightEnd)
	}
	return g.awaitState(5 * time.Second)
}
