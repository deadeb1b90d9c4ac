package main

import (
	"fmt"
	"runtime"
	"strings"
	"syscall"
	"time"

	"gosmr/internal/transport"
	"gosmr/internal/vfs"
)

// The traced run measures the per-layer metrics. It never feeds the
// end-to-end numbers: those come from untraced runs only, and the gap
// between the two is reported as trace.overhead_share.
//
// With S = -seconds the phases are: an untraced closed-loop baseline
// (0.15·S), then on a cluster built with the three seams a closed-loop
// phase (0.3·S) and an open-loop phase (0.3·S), the public-client probe on
// the idle cluster, the fault phase (write_durable only) and finally the
// isolated probes.

// tracedWarmup is shorter than the untraced warm-up: the traced numbers are
// ratios and shares, which settle faster than a tail percentile.
const tracedWarmup = time.Second

func runTraced(w *workload, seed int64, measure time.Duration, scratch, outDir string) (result, error) {
	tr := newTracer()
	m := make(map[string]float64)
	run := tr.begin("run."+w.name, -1)

	// Untraced baseline for trace.overhead_share.
	var baseline float64
	var err error
	tr.timed("phase.baseline", run, func() { baseline, err = untracedBaseline(w, seed, measure*15/100, scratch) })
	if err != nil {
		return result{}, err
	}

	nc, fc := &netCounters{}, &fsCounters{}
	sm := seams{
		network: func(base transport.Network, peers []string) transport.Network {
			set := make(map[string]bool, len(peers))
			for _, p := range peers {
				set[p] = true
			}
			return &countingNet{base: base, c: nc, peers: set}
		},
		fs:   countingFS{FS: vfs.OS, c: fc},
		prof: true,
	}
	var s *session
	tr.timed("phase.setup", run, func() { s, _, err = setup(w, replicas, sm, seed, scratch, tr) })
	if err != nil {
		return result{}, err
	}
	stopped := false
	defer func() {
		if !stopped {
			s.close()
		}
	}()
	g, c := s.g, s.c

	// Closed-loop phase: thread shares, queue means, counters, seam counts.
	var before, after insituSample
	var closed closedResult
	tr.timed("phase.closed", run, func() {
		closed = g.runClosedHooked(tracedWarmup, measure*30/100,
			func() { before = c.sampleInsitu(g, nc, fc, true) },
			func() { after = c.sampleInsitu(g, nc, fc, false) })
	})
	ops := closed.meanOps * closed.seconds
	insituMetrics(m, c, before, after, ops, closed.seconds, fc)
	if baseline > 0 {
		m["trace.overhead_share"] = 1 - closed.opsPerS/baseline
	}

	// Open-loop phase: process cost per op and generator diagnostics.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	done0 := g.verified.Load()
	var open openResult
	tr.timed("phase.open", run, func() { open = g.runOpen(measure*30/100, true) })
	openOps := float64(g.verified.Load() - done0)
	cpu1 := processCPU()
	runtime.ReadMemStats(&ms1)
	if openOps > 0 {
		m["process.cpu_us_per_op"] = float64(cpu1-cpu0) / 1e3 / openOps
		m["process.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / openOps
		m["process.alloc_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / openOps
	}
	m["process.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	all := open.lat.merged()
	m["loadgen.lat_p99_ms"] = nsToMs(percentile(all, 99))
	m["loadgen.lat_p999_ms"] = nsToMs(percentile(all, 99.9))
	if _, v, ok := maxSupportedPercentile(all); ok {
		m["loadgen.lat_max_pctl_ms"] = nsToMs(v)
	}
	m["loadgen.samples"] = float64(len(all))
	m["loadgen.late_p99_us"] = float64(percentile(open.late, 99)) / 1e3
	m["loadgen.inflight_end"] = open.inflightEnd
	if reads := g.reads.Load(); reads > 0 {
		m["reads.fallback_share"] = float64(g.fallbacks.Load()) / float64(reads)
	}

	if err := finishRun(s, open); err != nil {
		return result{}, err
	}
	tr.timed("phase.probe_client", run, func() { err = probeClient(m, tr, c) })
	if err != nil {
		return result{}, err
	}
	if w.durable {
		tr.timed("phase.fault", run, func() { err = runFaultPhase(m, s) })
		if err != nil {
			return result{}, err
		}
	}
	attempted := g.attempted.Load() + g.abandoned.Load()
	failed := g.timeouts.Load() + g.notOK.Load() + g.abandoned.Load()
	s.close()
	stopped = true

	tr.timed("phase.probes", run, func() { err = runProbes(m, tr, seed, scratch) })
	if err != nil {
		return result{}, err
	}
	var rusage syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &rusage); err == nil {
		m["process.peak_rss_mb"] = float64(rusage.Maxrss) / 1024 // Linux reports KiB
	}

	tr.end(run)
	path, err := tr.write(outDir, w.name)
	if err != nil {
		return result{}, fmt.Errorf("bench: writing trace: %w", err)
	}
	fmt.Printf("# %s traced: closed %.0f ops/s (untraced baseline %.0f), open %d samples; %d spans in %s\n",
		w.name, closed.opsPerS, baseline, len(all), len(tr.spans), path)

	res := result{Correct: true, Attempted: attempted, Failed: failed, Metrics: make(map[string]metric)}
	for name, unit := range layerUnits() {
		res.Metrics[name] = metric{Value: m[name], Unit: unit}
	}
	return res, nil
}

// untracedBaseline measures closed-loop throughput for d on a cluster built
// exactly like the end-to-end run's.
func untracedBaseline(w *workload, seed int64, d time.Duration, scratch string) (float64, error) {
	s, _, err := setup(w, replicas, seams{}, seed, scratch, nil)
	if err != nil {
		return 0, err
	}
	defer s.close()
	closed := s.g.runClosed(tracedWarmup, d)
	return closed.opsPerS, s.g.firstErr()
}

// processCPU returns the process's user+system CPU time in nanoseconds.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// insituSample is the state of every in-situ counter at one instant.
type insituSample struct {
	cpu      int64
	net      netSnapshot
	fs       fsSnapshot
	batches  uint64 // leader DecidedBatches
	pads     uint64 // leader PadsProposed
	executed uint64 // leader Executed
	local    uint64 // LocalReads, all replicas
	reads    int64  // reads the generator issued
	joins    uint64
	fences   uint64
	waits    uint64
	barriers uint64
}

// sampleInsitu reads every counter; with reset it also restarts the
// profiling windows and queue averages, discarding warm-up.
func (c *cluster) sampleInsitu(g *gen, nc *netCounters, fc *fsCounters, reset bool) insituSample {
	lead := c.cores[c.leader]
	if reset {
		for _, reg := range c.prof {
			reg.Reset()
		}
		lead.ResetQueueStats()
	}
	es := lead.ExecStats()
	s := insituSample{
		cpu: processCPU(), net: nc.snapshot(), fs: fc.snapshot(),
		batches: lead.DecidedBatches(), pads: lead.PadsProposed(), executed: lead.Executed(),
		joins: es.Joins, fences: es.Fences, waits: es.JoinWaits, barriers: es.Barriers,
		reads: g.reads.Load(),
	}
	for _, rep := range c.cores {
		s.local += rep.LocalReads()
	}
	return s
}

// threadModules maps profiling thread-name prefixes to metric names. A
// module's share sums its threads (four ClientIO workers, one Protocol and
// Batcher per group, one ReplicaIO pair per peer, the executor's workers).
var threadModules = []struct{ prefix, metric string }{
	{"ClientIO-", "core.clientio.busy_share"},
	{"Batcher", "core.batcher.busy_share"},
	{"Protocol", "core.protocol.busy_share"},
	{"ReplicaIOSnd-", "core.replicaio_snd.busy_share"},
	{"ReplicaIORcv-", "core.replicaio_rcv.busy_share"},
	{"Merger", "core.merger.busy_share"},
	{"ReadManager", "core.readmgr.busy_share"},
	{"Executor-", "executor.worker.busy_share"},
}

// insituMetrics turns two samples around the closed-loop phase into the
// in-situ metrics. ops is the number of verified client ops in between
// (reads included, which is why executed — ordered ops only — is separate).
// Reads issued and reads served locally are counted at slightly different
// instants, so reads.local_share can exceed 1 by a few in-flight reads.
func insituMetrics(m map[string]float64, c *cluster, a, b insituSample, ops, window float64, fc *fsCounters) {
	// Threads: leader's module shares; every replica's busy time for the
	// cross-check against process CPU.
	var busyAll, blocked time.Duration
	threads := 0
	for i, reg := range c.prof {
		for _, th := range reg.Snapshot() {
			busyAll += th.Busy
			if i != c.leader {
				continue
			}
			threads++
			blocked += th.Blocked
			if th.Name == "Replica" {
				m["core.servicemgr.busy_share"] += th.Busy.Seconds() / window
				continue
			}
			for _, mod := range threadModules {
				if strings.HasPrefix(th.Name, mod.prefix) {
					m[mod.metric] += th.Busy.Seconds() / window
					break
				}
			}
		}
	}
	if threads > 0 {
		m["core.blocked_share"] = blocked.Seconds() / (window * float64(threads))
	}
	if cpu := b.cpu - a.cpu; cpu > 0 {
		m["core.cpu_accounted_share"] = float64(busyAll) / float64(cpu)
	}

	// Queues: per-group and per-worker queues are summed.
	queueMetrics := []struct{ prefix, metric string }{
		{"RequestQueue", "queue.request.mean_len"},
		{"ProposalQueue", "queue.proposal.mean_len"},
		{"DispatcherQueue", "queue.dispatcher.mean_len"},
		{"MergeQueue", "queue.merge.mean_len"},
		{"DecisionQueue", "queue.decision.mean_len"},
		{"ExecutorQueue-", "queue.executor.mean_len"},
	}
	for name, avg := range c.cores[c.leader].QueueStats() {
		for _, q := range queueMetrics {
			if strings.HasPrefix(name, q.prefix) {
				m[q.metric] += avg
				break
			}
		}
	}

	// Counters.
	ordered := float64(b.executed - a.executed)
	if batches := float64(b.batches - a.batches); batches > 0 {
		m["batch.ops_per_batch"] = ordered / batches
		m["merger.pads_per_batch"] = float64(b.pads-a.pads) / batches
	}
	if ordered > 0 {
		m["executor.joins_per_op"] = float64(b.joins-a.joins) / ordered
	}
	if fences := float64(b.fences - a.fences); fences > 0 {
		m["executor.join_wait_share"] = float64(b.waits-a.waits) / fences
	}
	m["executor.barriers"] = float64(b.barriers - a.barriers)
	if reads := b.reads - a.reads; reads > 0 {
		m["reads.local_share"] = float64(b.local-a.local) / float64(reads)
	}
	if ops > 0 {
		m["transport.peer_frames_per_op"] = float64(b.net.peerFrames-a.net.peerFrames) / ops
		m["transport.peer_bytes_per_op"] = float64(b.net.peerBytes-a.net.peerBytes) / ops
		m["transport.client_bytes_per_op"] = float64(b.net.clientBytes-a.net.clientBytes) / ops
		m["vfs.write_bytes_per_op"] = float64(b.fs.writeBytes-a.fs.writeBytes) / ops
		m["vfs.fsyncs_per_op"] = float64(b.fs.syncs-a.fs.syncs) / ops
	}
	if syncs := b.fs.syncs - a.fs.syncs; syncs > 0 {
		// Every replica journals every op, so per replica an fsync covers
		// replicas·ops/syncs of them.
		m["wal.ops_per_fsync"] = ordered * replicas / float64(syncs)
		durs := fc.syncsBetween(a.fs.syncs, b.fs.syncs)
		m["vfs.fsync_ms_p50"] = nsToMs(percentile(durs, 50))
		m["vfs.fsync_ms_p90"] = nsToMs(percentile(durs, 90))
	}
}
