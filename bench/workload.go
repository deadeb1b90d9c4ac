package main

import "time"

// workload is one frozen traffic mix plus the cluster shape it runs on.
// Everything that is not listed here is a repo default (BSZ 1300 B,
// BatchDelay 5 ms, 4 ClientIO workers, n = 3).
type workload struct {
	name string
	why  string

	// Cluster shape.
	inproc        bool          // transport.Inproc instead of TCP loopback
	delay         time.Duration // injected one-way delay (inproc only)
	groups        int
	window        int
	execWorkers   int
	executeCost   int // service.KV.ExecuteCost (hash-mix rounds per command)
	durable       bool
	snapshotEvery int

	// Traffic.
	valueBytes    int     // PUT value size
	keys          int     // preloaded keys
	accounts      int     // preloaded TXN accounts (groups_skew only)
	pool          int     // virtual clients; both phases draw from it
	closedClients int     // virtual clients active in the closed-loop phase
	openRate      float64 // open-loop arrival rate, ops/s, all connections
	// putShare[c] is the probability that an op issued by a virtual client
	// homed on connection c is a write. Connection 0 always reaches the
	// leader; connection 1 reaches follower 1 when followerReads is set.
	putShare      [numConns]float64
	followerReads bool
	skew          bool // shared Zipf keys + TXNs instead of private keys
}

// numConns is the client-connection budget: nproc on the reference host.
const numConns = 2

// skewExecuteCost is service.KV.ExecuteCost calibrated once on the reference
// host to ≈ 20 µs per command for groups_skew's ≈ 150-byte requests
// (service.kv_put_ns in the traced run re-measures the plain store; the
// costed store is 20 µs slower) and frozen so later runs compare.
const skewExecuteCost = 110

// Open-loop rates sit at 35–70 % of the closed-loop capacity measured on
// the seed commit (see README.md, "Sizing"); they are part of the ruler and
// change only in a benchmark PR.
var workloads = []workload{
	{
		name:   "write_small",
		why:    "128-B PUTs over TCP, in memory: CPU-bound on the ordering path (ClientIO, wire, batch, paxos, ReplicaIO, replycache); WAL, Merger, executor, reads idle",
		groups: 1, window: 10, execWorkers: 1, snapshotEvery: 10000,
		valueBytes: 128, keys: 4096, pool: 512, closedClients: 64,
		openRate: 10000,
		putShare: [numConns]float64{1, 1},
	},
	{
		name:   "write_durable",
		why:    "1-KiB PUTs with DataDir on disk, SyncPolicy batch, snapshots every 10000: wal, vfs, the durable gate and snapshot cut/drain do the work",
		groups: 1, window: 10, execWorkers: 1,
		durable: true, snapshotEvery: 10000,
		valueBytes: 1024, keys: 4096, pool: 512, closedClients: 64,
		openRate: 2500,
		putShare: [numConns]float64{1, 1},
	},
	{
		name:   "read_mostly",
		why:    "90 % linearizable GET / 10 % PUT; conn 0 at the leader (lease-local reads), conn 1 at a follower (read-index reads): the read path works, ordering idles",
		groups: 1, window: 10, execWorkers: 1, snapshotEvery: 10000,
		valueBytes: 128, keys: 4096, pool: 512, closedClients: 64,
		openRate:      15000,
		putShare:      [numConns]float64{0.2, 0},
		followerReads: true,
	},
	{
		name:   "groups_skew",
		why:    "Inproc with 2 ms one-way delay, 4 groups, Zipf(0.99) PUTs + 10 % 2-key TXNs, 20 us/op service: window-, merge- and executor-bound, not CPU-bound",
		inproc: true, delay: 2 * time.Millisecond,
		groups: 4, window: 8, execWorkers: 2, executeCost: skewExecuteCost, snapshotEvery: 10000,
		valueBytes: 128, keys: 4096, accounts: 256, pool: 512, closedClients: 512,
		openRate: 5000,
		putShare: [numConns]float64{0.9, 0.9},
		skew:     true,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
