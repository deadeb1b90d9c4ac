// Package gosmr is a high-throughput, multi-core-scalable state machine
// replication (SMR) library — a Go reproduction of "Achieving
// High-Throughput State Machine Replication in Multi-core Systems"
// (Santos & Schiper, ICDCS 2013), the JPaxos threading-architecture paper.
//
// A cluster of n = 2f+1 replicas runs MultiPaxos (with batching and
// pipelining) to agree on the order of client requests and applies them to
// a deterministic Service. Internally each replica is a pipeline of
// goroutine-owning modules connected by bounded queues — ClientIO pool,
// Batcher, Protocol, ServiceManager, per-peer ReplicaIO threads, plus
// FailureDetector and Retransmitter satellites — designed so throughput
// scales with available cores while end-to-end backpressure bounds memory.
//
// Quickstart:
//
//	svc := &myService{}                        // implements gosmr.Service
//	rep, err := gosmr.NewReplica(gosmr.Config{
//	    ID:         0,
//	    Peers:      []string{"h0:7000", "h1:7000", "h2:7000"},
//	    ClientAddr: "h0:8000",
//	}, svc)
//	...
//	rep.Start()
//	defer rep.Stop()
//
//	cli, err := gosmr.Dial(gosmr.ClientConfig{
//	    Addrs: []string{"h0:8000", "h1:8000", "h2:8000"},
//	})
//	reply, err := cli.Execute([]byte("incr"))
package gosmr

import (
	"time"

	"gosmr/internal/batch"
	"gosmr/internal/core"
	"gosmr/internal/executor"
	"gosmr/internal/profiling"
	"gosmr/internal/transport"
	"gosmr/internal/vfs"
	"gosmr/internal/wal"
	"gosmr/internal/wire"
)

// ReadConsistency selects the guarantee of Client.Read. Reads at either
// level never enter the ordering pipeline — they are served from local
// replica state via the leader-lease / read-index path (or, when that path
// is unavailable, transparently fall back to an ordered command).
type ReadConsistency uint8

const (
	// ReadLinearizable observes every write acknowledged before the read
	// started. On the leaseholder the read is answered locally after a
	// lease-validity check; on a follower it waits one read-index round to
	// the leaseholder and then reads local state.
	ReadLinearizable ReadConsistency = ReadConsistency(wire.ReadLinearizable)
	// ReadStable reads whatever state the contacted replica has applied:
	// no coordination at all, monotonic per replica, but with no bound on
	// staleness. The cheapest read — and the weakest.
	ReadStable ReadConsistency = ReadConsistency(wire.ReadStable)
)

// Service is the deterministic application replicated across the cluster.
// Execute must be a pure function of the service state and the request:
// every replica applies the same sequence of requests, so any
// non-determinism diverges the replicas.
//
// Snapshot/Restore is the simple whole-state contract: the replica calls
// Snapshot with execution quiesced and chunks the blob itself, so even a
// blob service never puts an unbounded unit on disk or the wire — but the
// serialization pause grows linearly with state size. Services with big
// state should additionally implement the chunked contract
// (internal/snapshot.Cutter, as the bundled KV store does): the replica
// then only marks a copy-on-write cut under quiesce, execution resumes
// immediately, and chunks — full or delta generations — drain in the
// background.
type Service interface {
	// Execute applies one request and returns its reply.
	Execute(req []byte) []byte
	// Snapshot serializes the full service state.
	Snapshot() ([]byte, error)
	// Restore replaces the service state from a Snapshot blob.
	Restore(snapshot []byte) error
}

// ConflictAware is an optional Service extension that unlocks parallel
// execution. A conflict-aware service declares, for each request, the set of
// state keys the request reads or writes; two requests conflict iff their
// key sets intersect. When the service implements ConflictAware and
// Config.ExecutorWorkers > 1, the replica executes non-conflicting requests
// concurrently on multiple workers while guaranteeing that conflicting
// requests run in log order on every replica — the observable state stays
// equivalent to a serial execution.
//
// Keys must be a pure function of the request bytes (never of service
// state). Returning nil or an empty slice marks the request "global": it
// acts as a barrier, serialized against every other request — the safe
// answer for unparseable or whole-state commands. Services that do not
// implement ConflictAware always execute sequentially, exactly as before.
type ConflictAware interface {
	Keys(req []byte) []string
}

// Network is a transport for a cluster: TCP in production, in-process for
// tests and single-host experiments. Obtain one from TCPNetwork or
// NewInprocNetwork.
type Network = transport.Network

// TCPNetwork returns the production TCP transport.
func TCPNetwork() Network { return &transport.TCP{} }

// NewInprocNetwork returns an in-process transport: replicas and clients
// created with the same Network value connect to each other by name, with
// no sockets involved. Useful for tests and single-process clusters.
func NewInprocNetwork() Network { return transport.NewInproc(0) }

// Config configures one replica. ID, Peers and ClientAddr are required.
type Config struct {
	// ID is this replica's index into Peers.
	ID int
	// Peers lists every replica's inter-replica address, indexed by ID.
	Peers []string
	// ClientAddr is this replica's client-facing listen address.
	ClientAddr string
	// PeerClientAddrs lists every replica's client-facing address, indexed
	// by ID. Optional for static clusters; required (and carried in the
	// topology) for clusters that reconfigure, so clients and joiners can
	// re-resolve the full address map from a TopoUpdate alone.
	PeerClientAddrs []string
	// TopologyEpoch seeds the topology epoch this replica boots into.
	// 0 (the default) is the cluster as booted; a replica joining or
	// restarting into a reconfigured cluster must be given the committed
	// epoch (see Replica.AddReplica). Boot refuses a seed older than what
	// the DataDir holds.
	TopologyEpoch int64
	// TopologyBaseView seeds the first view of the boot epoch, where a
	// fresh replica starts: 0 for a cluster never reconfigured, else
	// BaseView from the committed topology returned by AddReplica.
	TopologyBaseView int64
	// OnFaulted, when non-nil, is called (once, on its own goroutine) when
	// the replica fail-stops on a WAL disk fault or learns it was
	// permanently removed from the cluster. The replica shuts itself down
	// either way; the hook tells the operator why.
	OnFaulted func(reason string)
	// Network selects the transport; nil means TCP.
	Network Network

	// ClientIOWorkers sizes the ClientIO thread pool (default 4, the
	// paper's measured optimum on their hardware — Fig. 9).
	ClientIOWorkers int
	// Groups partitions ordering across that many parallel Paxos groups,
	// each with its own Batcher, Protocol thread, replicated log, and
	// retransmission state; a deterministic merge stage recombines the
	// per-group decision streams into one total order, so execution,
	// at-most-once semantics, and snapshots behave exactly as with a single
	// group. Requests route to a group by conflict key (keyless requests —
	// and all requests of a non-ConflictAware service — order in group 0).
	// Default 1: the paper's single ordering pipeline. Must be identical on
	// every replica.
	Groups int
	// Window is the pipelining limit WND: the maximum number of consensus
	// instances in flight per ordering group (default 10).
	Window int
	// BatchBytes is the cap BSZ, in encoded bytes, a batch may grow to while
	// the window is full (default 64 KiB). It is not a fill target: a leader
	// with a free window slot proposes whatever has arrived at once, so an
	// idle cluster never waits for a batch to fill. (The paper's baseline,
	// 1300 — one Ethernet frame — was a target and thereby the capacity of a
	// round, WND × BSZ.)
	BatchBytes int
	// BatchDelay flushes a batch that has waited this long at a replica that
	// cannot propose it (not leader yet; window and ProposalQueue full).
	// Default 5ms; it no longer trades latency for batch size and needs no
	// tuning.
	BatchDelay time.Duration

	// SnapshotEvery snapshots the service every that many decided
	// instances, enabling log truncation and fast state transfer
	// (0 disables).
	SnapshotEvery int
	// SnapshotChunkBytes caps every unit a snapshot moves in — the chunks a
	// cut yields, each persisted chunk file, every state-transfer frame
	// (default 256 KiB). SnapshotMaxChain makes every that-many-th snapshot
	// a full cut, with delta generations (only keys changed since the
	// previous cut) in between (default 4; 1 disables deltas). Both must be
	// identical on every replica — chunk boundaries and the full/delta
	// cadence are part of snapshot determinism.
	SnapshotChunkBytes int
	SnapshotMaxChain   int

	// DataDir, when non-empty, makes the replica durable: acceptor state
	// (promised view, accepted values, decided markers) is journaled to
	// per-group write-ahead logs and snapshots are persisted under this
	// directory. A replica killed mid-run and restarted from the same
	// DataDir replays its logs, rejoins without state transfer of the
	// durable prefix, and a full-cluster restart preserves every
	// acknowledged command. Empty (the default) keeps the purely in-memory
	// replica.
	DataDir string
	// SyncPolicy selects when WAL appends are fsynced: "batch" (default —
	// group commit: a per-group Syncer thread coalesces pending appends
	// into one fsync and protocol output waits for it, so the ordering
	// threads never block on disk), "always" (fsync inline on every
	// record), or "none" (never fsync and never wait: best-effort recovery
	// after clean shutdowns and most process kills, but no durability
	// guarantee). Ignored without DataDir.
	SyncPolicy string

	// ExecutorWorkers sets the number of parallel execution workers. It
	// takes effect only when the Service also implements ConflictAware;
	// 0 or 1 (the default) keeps the classic single-threaded execution.
	// A multi-key command (Keys returns several keys hashing to different
	// workers) is fence-scheduled onto only its involved workers — the
	// rest keep executing — so declaring precise key sets pays off even
	// for transactional workloads.
	ExecutorWorkers int

	// WALRetainCheckpoints keeps that many previous checkpoint generations
	// of WAL segments for disk-served catch-up (0 = the default of 1), and
	// WALRetainBytes, when > 0, keeps even older segments while the total
	// retained size fits the budget, letting disk-rich deployments serve
	// deep catch-up gaps without state transfer. Ignored without DataDir.
	WALRetainCheckpoints int
	WALRetainBytes       int64

	// FS supplies the filesystem every durable path goes through — WAL
	// segments, snapshot chunks and manifests, state-transfer staging. Nil
	// (the default) uses the real filesystem through a zero-overhead
	// passthrough; tests inject vfs.NewFaultFS to script disk faults
	// (failed fsyncs, short writes, ENOSPC, read corruption) against a real
	// replica. Ignored without DataDir.
	FS vfs.FS

	// HeartbeatInterval and SuspectTimeout tune the failure detector.
	HeartbeatInterval time.Duration
	SuspectTimeout    time.Duration

	// LeaseDuration is how long a heartbeat-carried leader lease lasts.
	// While a majority of followers holds unexpired lease promises, the
	// leader serves linearizable reads from local state — and answers
	// followers' read-index queries so THEY can serve reads locally too —
	// without ordering reads through the log. Followers holding a promise
	// delay elections until it expires, so losing the leader can add up to
	// one lease duration to failover. 0 takes the default
	// (6×HeartbeatInterval); negative disables leases, sending every
	// Client.Read down the ordered fallback path.
	//
	// The read path executes read-only requests on non-execution threads,
	// concurrently with the execution stage: the Service must tolerate
	// concurrent Execute calls for read-only requests (a service guarding
	// its state with a mutex, like the bundled KV store, qualifies).
	LeaseDuration time.Duration
	// MaxClockSkew bounds clock RATE drift between replicas over one lease
	// interval (not absolute clock offset — both sides measure durations on
	// their own clock). The leader stops trusting a promise MaxClockSkew
	// before the follower stops honoring it. Default 10ms.
	MaxClockSkew time.Duration

	// Profiling, when non-nil, receives per-module-thread accounting
	// (busy/blocked/waiting/other) like the paper's measurements.
	Profiling *profiling.Registry
}

// Replica is one member of the replicated state machine.
type Replica struct {
	inner *core.Replica
}

// NewReplica builds an unstarted replica around svc.
func NewReplica(cfg Config, svc Service) (*Replica, error) {
	policy, err := wal.ParsePolicy(cfg.SyncPolicy)
	if err != nil {
		return nil, err
	}
	inner, err := core.NewReplica(core.Config{
		ID:                   cfg.ID,
		PeerAddrs:            cfg.Peers,
		ClientAddr:           cfg.ClientAddr,
		PeerClientAddrs:      cfg.PeerClientAddrs,
		TopologyEpoch:        cfg.TopologyEpoch,
		TopologyBaseView:     cfg.TopologyBaseView,
		OnFaulted:            cfg.OnFaulted,
		Network:              cfg.Network,
		ClientIOWorkers:      cfg.ClientIOWorkers,
		Groups:               cfg.Groups,
		Window:               cfg.Window,
		Batch:                batch.Policy{MaxBytes: cfg.BatchBytes, MaxDelay: cfg.BatchDelay},
		SnapshotEvery:        cfg.SnapshotEvery,
		SnapshotChunkBytes:   cfg.SnapshotChunkBytes,
		SnapshotMaxChain:     cfg.SnapshotMaxChain,
		DataDir:              cfg.DataDir,
		SyncPolicy:           policy,
		WALRetainCheckpoints: cfg.WALRetainCheckpoints,
		WALRetainBytes:       cfg.WALRetainBytes,
		FS:                   cfg.FS,
		ExecutorWorkers:      cfg.ExecutorWorkers,
		HeartbeatInterval:    cfg.HeartbeatInterval,
		SuspectTimeout:       cfg.SuspectTimeout,
		LeaseDuration:        cfg.LeaseDuration,
		MaxClockSkew:         cfg.MaxClockSkew,
		Profiling:            cfg.Profiling,
	}, svc)
	if err != nil {
		return nil, err
	}
	return &Replica{inner: inner}, nil
}

// Start launches all replica modules and binds its listeners.
func (r *Replica) Start() error { return r.inner.Start() }

// Stop shuts the replica down and waits for all of its goroutines.
func (r *Replica) Stop() { r.inner.Stop() }

// ID returns the replica's ID.
func (r *Replica) ID() int { return r.inner.ID() }

// IsLeader reports whether this replica is the established leader.
func (r *Replica) IsLeader() bool { return r.inner.IsLeader() }

// Leader returns the current leader's replica ID (a lock-free hint).
func (r *Replica) Leader() int { return r.inner.Leader() }

// View returns the current view number.
func (r *Replica) View() int32 { return int32(r.inner.View()) }

// Executed returns the number of requests executed by the local service.
func (r *Replica) Executed() uint64 { return r.inner.Executed() }

// Groups returns the number of ordering groups the replica runs.
func (r *Replica) Groups() int { return r.inner.Groups() }

// Topology is the epoch-stamped cluster shape: the replica peer addresses
// (removed IDs leave a permanent "" hole), the client-facing addresses, the
// ordering-group count, and the first view of the epoch. See the
// Reconfiguration section of the README.
type Topology = wire.Topology

// Topology returns a copy of the committed cluster topology this replica
// currently operates under.
func (r *Replica) Topology() *Topology { return r.inner.Topology() }

// Epoch returns the committed topology epoch (0 until the first
// reconfiguration).
func (r *Replica) Epoch() int64 { return r.inner.Epoch() }

// ErrReconfigConflict is returned by AddReplica/RemoveReplica when the
// epoch advanced but a concurrent reconfiguration won the slot with a
// different change (check with errors.Is). Inspect Topology() and re-propose
// against the committed shape.
var ErrReconfigConflict = core.ErrReconfigConflict

// AddReplica commits a single-step reconfiguration appending one replica
// with the given peer-facing and client-facing addresses, blocking until the
// config command is ordered and takes effect. It returns the committed
// topology; boot the joiner with Config.TopologyEpoch/TopologyBaseView and
// the Peers list taken from exactly that topology, and it catches up through
// snapshot transfer plus the WAL like any lagging replica. Must be called on
// the leader. If a concurrent proposal wins the epoch slot with a different
// change, the call fails with ErrReconfigConflict instead of returning a
// topology that does not contain the joiner.
func (r *Replica) AddReplica(peerAddr, clientAddr string) (*Topology, error) {
	return r.inner.AddReplica(peerAddr, clientAddr)
}

// RemoveReplica commits a single-step reconfiguration removing replica id.
// Its slot becomes a permanent hole (IDs are never reused) and the quorum
// size shrinks with the membership. Must be called on the leader, which
// cannot remove itself.
func (r *Replica) RemoveReplica(id int) (*Topology, error) {
	return r.inner.RemoveReplica(id)
}

// DecidedBatches returns the number of non-empty batches delivered in merged
// order — the ordering layer's useful output rate.
func (r *Replica) DecidedBatches() uint64 { return r.inner.DecidedBatches() }

// LeaseValid reports whether this replica currently holds a valid leader
// lease (it may serve linearizable reads from local state).
func (r *Replica) LeaseValid() bool { return r.inner.LeaseValid() }

// LocalReads returns the number of reads this replica served on the
// lease/read-index path — reads that never entered the ordering pipeline.
func (r *Replica) LocalReads() uint64 { return r.inner.LocalReads() }

// StateTransfers returns the number of snapshots installed from peers
// (catch-up state transfer). A durable replica restarted from its DataDir
// recovers its own prefix locally, so this stays zero unless the replica
// fell behind a truncation horizon.
func (r *Replica) StateTransfers() uint64 { return r.inner.StateTransfers() }

// SnapshotFailures returns the number of failed snapshot stages (cut,
// drain, persist, transfer pull). A replica with a rising count keeps
// running on its full WAL, but its log is not being truncated; alert on it.
func (r *Replica) SnapshotFailures() uint64 { return r.inner.SnapshotFailures() }

// TransferResumedBytes returns the total staged bytes that resumed
// state-transfer pulls reused instead of refetching from byte 0.
func (r *Replica) TransferResumedBytes() uint64 { return r.inner.TransferResumedBytes() }

// Faulted reports whether this replica fail-stopped on a WAL disk fault
// (failed write or fsync on the append path). A faulted replica shuts
// itself down — it sends no heartbeats and acknowledges nothing — so the
// remaining quorum elects around it; restarting it from the same DataDir
// replays exactly what the disk holds.
func (r *Replica) Faulted() bool { return r.inner.Faulted() }

// WALFaults returns the number of fail-stop WAL disk faults observed.
func (r *Replica) WALFaults() uint64 { return r.inner.WALFaults() }

// DiskQuarantines returns the number of corrupt on-disk artifacts (WAL
// segments, snapshot manifests) renamed aside to *.corrupt instead of
// refusing to boot — possible only when the cluster can refill the lost
// state from peers.
func (r *Replica) DiskQuarantines() uint64 { return r.inner.DiskQuarantines() }

// ReplyCacheBytes returns the deterministic marshaled reply cache — equal
// byte-for-byte across the replicas of a converged cluster, which makes it
// a convenient operational check for divergence (the determinism and
// crash-restart tests rely on it).
func (r *Replica) ReplyCacheBytes() []byte { return r.inner.ReplyCacheBytes() }

// SnapshotImage returns a copy of the newest assembled snapshot's transfer
// image — cut, generation chain, and reply cache in one deterministic byte
// string — or nil before the first cut. Converged replicas produce
// byte-identical images regardless of Groups or ExecutorWorkers.
func (r *Replica) SnapshotImage() []byte { return r.inner.SnapshotImage() }

// ClientAddr returns the bound client-facing address (resolves ephemeral
// ports).
func (r *Replica) ClientAddr() string { return r.inner.ClientAddr() }

// ExecutorStats is the execution scheduler's counter snapshot: tasks
// dispatched to workers, global barriers (keyless commands), multi-key
// join nodes, fences enqueued for them, and fences that had to wait at
// their join. Joins ≈ Barriers trending to zero under a conflict-aware
// service is the signal that multi-key commands pipeline instead of
// stopping the world.
type ExecutorStats = executor.Stats

// ExecStats returns the execution stage's scheduler counters. Safe to call
// on a running replica.
func (r *Replica) ExecStats() ExecutorStats { return r.inner.ExecStats() }

// QueueStats returns the time-averaged lengths of the internal queues
// (RequestQueue, ProposalQueue, DispatcherQueue, DecisionQueue, and the
// per-worker ExecutorQueue-i when parallel execution is enabled) — the
// statistics of the paper's Table I, extended with the executor stage.
func (r *Replica) QueueStats() map[string]float64 { return r.inner.QueueStats() }

// NewProfilingRegistry returns a registry to pass in Config.Profiling; its
// Snapshot method reports per-thread busy/blocked/waiting/other times.
func NewProfilingRegistry() *profiling.Registry { return profiling.NewRegistry() }
