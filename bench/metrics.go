package main

// The metric names below are the ones BENCHMARK.json lists; a test keeps the
// two in step. README.md defines each and says which end-to-end metric, on
// which workload, a per-layer metric is expected to move.

// endToEndNames are printed by an untraced run (-trace 0).
var endToEndNames = []string{
	"setup_s",
	"ops_per_s",
	"lat_p50_ms",
	"lat_p90_ms",
	"write_lat_p90_ms",
}

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name string
	unit string
}

// inSituMetrics are measured on the running cluster, once per workload.
var inSituMetrics = []layerMetric{
	// Module threads of the leader replica from profiling.Registry: busy
	// time summed over the module's threads ÷ window (1.0 = one core).
	{"core.clientio.busy_share", "ratio"},
	{"core.batcher.busy_share", "ratio"},
	{"core.protocol.busy_share", "ratio"},
	{"core.replicaio_snd.busy_share", "ratio"},
	{"core.replicaio_rcv.busy_share", "ratio"},
	{"core.merger.busy_share", "ratio"},
	{"core.servicemgr.busy_share", "ratio"},
	{"core.readmgr.busy_share", "ratio"},
	{"executor.worker.busy_share", "ratio"},
	{"core.blocked_share", "ratio"},
	{"core.cpu_accounted_share", "ratio"},
	// Time-averaged queue lengths of the leader (Table I).
	{"queue.request.mean_len", "count"},
	{"queue.proposal.mean_len", "count"},
	{"queue.dispatcher.mean_len", "count"},
	{"queue.merge.mean_len", "count"},
	{"queue.decision.mean_len", "count"},
	{"queue.executor.mean_len", "count"},
	// Counters of the leader.
	{"batch.ops_per_batch", "count"},
	{"merger.pads_per_batch", "count"},
	{"executor.joins_per_op", "count"},
	{"executor.join_wait_share", "ratio"},
	{"executor.barriers", "count"},
	{"reads.local_share", "ratio"},
	{"reads.fallback_share", "ratio"},
	// Counting Network wrapper, all replicas.
	{"transport.peer_frames_per_op", "count"},
	{"transport.peer_bytes_per_op", "B"},
	{"transport.client_bytes_per_op", "B"},
	// Counting/timing vfs.FS wrapper, all replicas.
	{"vfs.fsyncs_per_op", "count"},
	{"wal.ops_per_fsync", "count"},
	{"vfs.write_bytes_per_op", "B"},
	{"vfs.fsync_ms_p50", "ms"},
	{"vfs.fsync_ms_p90", "ms"},
	// Whole process (three replicas and the generator), open-loop phase.
	{"process.cpu_us_per_op", "us"},
	{"process.allocs_per_op", "count"},
	{"process.alloc_bytes_per_op", "B"},
	{"process.gc_pause_ms", "ms"},
	{"process.peak_rss_mb", "MB"},
	// Load generator diagnostics, open-loop phase.
	{"loadgen.lat_p99_ms", "ms"},
	{"loadgen.lat_p999_ms", "ms"},
	{"loadgen.lat_max_pctl_ms", "ms"},
	{"loadgen.samples", "count"},
	{"loadgen.late_p99_us", "us"},
	{"loadgen.inflight_end", "count"},
	{"trace.overhead_share", "ratio"},
	// Fault phase (write_durable only; zero elsewhere).
	{"fd.failover_ms", "ms"},
	{"core.view_changes", "count"},
	{"core.catchup_ms", "ms"},
	{"core.restart_replay_ms", "ms"},
}

// probeMetrics come from the isolated probes (probe_<layer>.go), which call
// each internal package's public functions on seeded synthetic inputs.
var probeMetrics = []layerMetric{
	{"wire.encode_request_ns", "ns"},
	{"wire.decode_request_ns", "ns"},
	{"wire.encode_propose_ns", "ns"},
	{"wire.decode_propose_ns", "ns"},
	{"wire.allocs_per_roundtrip", "count"},
	{"batch.add_flush_ns_per_req", "ns"},
	{"replycache.lookup_update_ns", "ns"},
	{"queue.handoff_ns", "ns"},
	{"paxos.decide_ns_per_instance", "ns"},
	{"paxos.msgs_per_instance", "count"},
	{"storage.accept_decide_ns", "ns"},
	{"wal.append_ns", "ns"},
	{"wal.append_sync_ms_p50", "ms"},
	{"wal.replay_ms_per_10k", "ms"},
	{"executor.submit_ns", "ns"},
	{"executor.join_submit_ns", "ns"},
	{"service.kv_put_ns", "ns"},
	{"service.kv_get_ns", "ns"},
	{"service.cut_ms_per_10k_keys", "ms"},
	{"snapshot.drain_mb_per_s", "MB/s"},
	{"transport.tcp_rtt_us", "us"},
	{"transport.tcp_frames_per_s", "1/s"},
	{"transport.inproc_rtt_us", "us"},
	{"client.execute_ms_p50", "ms"},
	{"client.read_ms_p50", "ms"},
	{"core.n1_ops_per_s", "ops/s"},
}

// perLayerNames are printed by a traced run (-trace 1), in this order.
func perLayerNames() []string {
	names := make([]string, 0, len(inSituMetrics)+len(probeMetrics))
	for _, m := range inSituMetrics {
		names = append(names, m.name)
	}
	for _, m := range probeMetrics {
		names = append(names, m.name)
	}
	return names
}

// layerUnits maps every per-layer metric to its unit.
func layerUnits() map[string]string {
	units := make(map[string]string, len(inSituMetrics)+len(probeMetrics))
	for _, m := range inSituMetrics {
		units[m.name] = m.unit
	}
	for _, m := range probeMetrics {
		units[m.name] = m.unit
	}
	return units
}
