// Package core implements the paper's multi-core scalable threading
// architecture for a replicated state machine (Sec. V, Fig. 3).
//
// A Replica is a set of goroutine-owning modules connected by bounded
// queues:
//
//	ClientIO workers ──RequestQueue──▶ Batcher ──ProposalQueue──▶ Protocol
//	ReplicaIORcv-j  ──DispatcherQueue───────────────────────────▶ Protocol
//	Protocol ──SendQueue-j──▶ ReplicaIOSnd-j (one per peer)
//	Protocol ──DecisionQueue──▶ ServiceManager ──reply queues──▶ ClientIO
//
// plus the satellite FailureDetector and Retransmitter threads. Each module
// encapsulates its own state; cross-module communication is message passing
// through the queues, with the few lock-free shared variables the paper
// allows (failure-detector timestamps, the current view/leader hints, the
// decision watermark). Bounded queues implement backpressure flow control
// end to end (Sec. V-E): when the Protocol thread falls behind, the
// ProposalQueue fills, the Batcher stalls, the RequestQueue fills, ClientIO
// stops reading and TCP pushes back on the clients.
package core

import (
	"fmt"
	"sync"
	"time"

	"gosmr/internal/batch"
	"gosmr/internal/profiling"
	"gosmr/internal/queue"
	"gosmr/internal/transport"
	"gosmr/internal/vfs"
	"gosmr/internal/wal"
	"gosmr/internal/wire"
)

// Service is the deterministic application replicated by the state machine
// (Sec. III-A). Execute must be deterministic: every replica applies the
// same requests in the same order.
type Service interface {
	// Execute applies one request and returns its reply.
	Execute(req []byte) []byte
	// Snapshot serializes the service state (for state transfer and log
	// truncation).
	Snapshot() ([]byte, error)
	// Restore replaces the service state from a snapshot.
	Restore(snapshot []byte) error
}

// ConflictAware is the optional Service extension that unlocks parallel
// execution: a service that declares, per request, the conflict keys the
// request touches (see package executor). When the service implements it and
// Config.ExecutorWorkers > 1, non-conflicting requests execute concurrently.
type ConflictAware interface {
	Keys(req []byte) []string
}

// Config configures a Replica. Zero fields take the documented defaults.
type Config struct {
	// ID is this replica's index in PeerAddrs.
	ID int
	// PeerAddrs lists the replica-to-replica addresses of the whole cluster,
	// indexed by replica ID.
	PeerAddrs []string
	// ClientAddr is this replica's client-facing listen address.
	ClientAddr string
	// PeerClientAddrs optionally lists the client-facing addresses of the
	// whole cluster, indexed by replica ID (PeerClientAddrs[ID] should equal
	// ClientAddr). When set, topology updates pushed to clients carry these
	// addresses so a client pinned to a removed replica can re-resolve.
	PeerClientAddrs []string
	// TopologyEpoch is the epoch of the seed topology described by PeerAddrs.
	// Epoch 0 (the default) is the cluster as booted, before any
	// reconfiguration; it is a topology like any other. A replica restarted
	// after a reconfiguration must be given the committed epoch (and the
	// matching PeerAddrs); boot refuses to start if the on-disk epoch is
	// newer than this seed.
	TopologyEpoch int64
	// TopologyBaseView is the first view of the seed topology's epoch (the
	// view every ordering group re-ran Phase 1 at when the epoch took
	// effect), where a fresh replica starts. 0 at epoch 0. A zero value is
	// safe at any epoch — the replica converges to the epoch's real base
	// view from peer traffic or its own WAL — but seeding it avoids a round
	// of stale-view messages.
	TopologyBaseView int64
	// OnFaulted, when non-nil, is called at most once when the replica
	// transitions to the fail-stop Faulted state (disk fault) or is
	// permanently removed from the cluster by a reconfiguration. Called from
	// an internal goroutine; must not block.
	OnFaulted func(reason string)
	// Network supplies the transport (default: TCP).
	Network transport.Network

	// ClientIOWorkers is the size of the ClientIO thread pool (the paper's
	// key tunable, Fig. 9). Default 4 — the measured optimum.
	ClientIOWorkers int
	// Groups is the number of independent ordering (Paxos) groups. Each
	// group runs its own Batcher, Protocol thread, replicated log, and
	// retransmission state, multiplexed over the shared per-peer
	// connections; a deterministic merge stage recombines the per-group
	// decision streams into the single total order the execution stage
	// consumes. Default 1, the paper's single-ordering-thread
	// architecture. Must be identical on every replica.
	Groups int
	// Window is the pipelining limit WND (max concurrent instances) — per
	// ordering group. Default 10, the paper's baseline.
	Window int
	// Batch bounds a batch nobody has pulled yet: the cap BSZ it may grow to
	// behind a full window, and the delay that flushes it where the leader
	// cannot propose (see runBatcher).
	Batch batch.Policy

	// ProposalQueueCap bounds each group's ProposalQueue (default 20, the
	// paper's setup).
	ProposalQueueCap int

	// Failure-detector timing.
	HeartbeatInterval time.Duration
	SuspectTimeout    time.Duration
	// LeaseDuration is how long a heartbeat-carried leader lease lasts. While
	// a quorum of followers holds unexpired lease promises, the leader serves
	// linearizable reads locally (and answers followers' read-index queries)
	// without ordering them through the log. 0 takes the default
	// (6×HeartbeatInterval); negative disables leases — every read falls back
	// to an ordered command.
	LeaseDuration time.Duration
	// MaxClockSkew bounds how much faster a follower's clock may run than the
	// leader's over one lease: the leader expires its own view of a promise
	// MaxClockSkew early, so a promise always outlives the leader's reliance
	// on it without synchronized clocks. Default 10ms.
	MaxClockSkew time.Duration
	// RetransPeriod is the initial retransmission period.
	RetransPeriod time.Duration

	// SnapshotEvery triggers a service snapshot (and log truncation) every
	// that many executed instances; 0 disables snapshotting.
	SnapshotEvery int
	// SnapshotChunkBytes caps every unit a snapshot moves in: the chunks a
	// service cut yields, each chunk file persisted under
	// DataDir/snapshots/, and the Data payload of every state-transfer
	// frame. A single unit exceeds it only when one atomic service entry
	// alone is larger than the cap. Default 256 KiB. Must be identical on
	// every replica (chunk boundaries are part of snapshot determinism).
	SnapshotChunkBytes int
	// SnapshotMaxChain bounds the delta-generation chain: snapshots between
	// full cuts persist only the keys mutated since the previous cut, and
	// every SnapshotMaxChain-th snapshot is a full cut that resets the
	// chain. 1 makes every snapshot full (no deltas). Default 4. Must be
	// identical on every replica (the full/delta cadence is a pure function
	// of the cut index, which keeps chains byte-identical cluster-wide).
	SnapshotMaxChain int

	// DataDir, when non-empty, enables crash-restart recovery: each
	// ordering group journals its acceptor state to a write-ahead log under
	// this directory and snapshots are persisted there, so a killed replica
	// restarted from the same DataDir rejoins without state transfer of its
	// durable prefix. Empty keeps the in-memory (seed) behavior.
	DataDir string
	// SyncPolicy selects the WAL fsync discipline (wal.SyncBatch — group
	// commit, the default — wal.SyncAlways, or wal.SyncNone). Only
	// meaningful with DataDir set.
	SyncPolicy wal.SyncPolicy
	// WALRetainCheckpoints is how many previous checkpoint generations of
	// WAL segments each group keeps for disk-served catch-up (0 takes the
	// wal default of 1). Only meaningful with DataDir set.
	WALRetainCheckpoints int
	// WALRetainBytes, when > 0, keeps WAL segments below the generation
	// floor while total retained bytes fit the budget, so deep catch-up
	// gaps are served from the log instead of state transfer. Only
	// meaningful with DataDir set.
	WALRetainBytes int64
	// FS supplies the filesystem every durable path (WAL segments, snapshot
	// chunks and manifests, pull staging) goes through. Default vfs.OS, the
	// zero-overhead passthrough; tests inject vfs.FaultFS to script disk
	// faults. Only meaningful with DataDir set.
	FS vfs.FS

	// ExecutorWorkers is the number of execution worker goroutines. It takes
	// effect only when the service implements ConflictAware; the default (and
	// any value <= 1) keeps the original single-threaded ServiceManager
	// execution path.
	ExecutorWorkers int

	// Profiling optionally receives per-thread accounting; nil disables.
	Profiling *profiling.Registry
}

// Fixed queue capacities (RequestQueue 1000 follows the paper's setup) and
// the period that re-arms an unanswered catch-up query.
const (
	requestQueueCap  = 1000
	dispatchQueueCap = 4096
	decisionQueueCap = 512
	sendQueueCap     = 1024
	replyQueueCap    = 256
	executorQueueCap = 256
	catchUpTimeout   = 250 * time.Millisecond
)

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Network == nil {
		c.Network = &transport.TCP{}
	}
	if c.ClientIOWorkers <= 0 {
		c.ClientIOWorkers = 4
	}
	if c.Groups <= 0 {
		c.Groups = 1
	}
	if c.Window <= 0 {
		c.Window = 10
	}
	if c.ProposalQueueCap <= 0 {
		c.ProposalQueueCap = 20
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 50 * time.Millisecond
	}
	if c.SuspectTimeout <= 0 {
		c.SuspectTimeout = 500 * time.Millisecond
	}
	if c.LeaseDuration == 0 {
		c.LeaseDuration = 6 * c.HeartbeatInterval
	}
	if c.MaxClockSkew <= 0 {
		c.MaxClockSkew = 10 * time.Millisecond
	}
	if c.LeaseDuration > 0 && c.LeaseDuration <= c.MaxClockSkew {
		// A lease shorter than the skew bound can never be relied on;
		// treat it as disabled rather than granting dead leases.
		c.LeaseDuration = -1
	}
	if c.RetransPeriod <= 0 {
		c.RetransPeriod = 100 * time.Millisecond
	}
	if c.SnapshotChunkBytes <= 0 {
		c.SnapshotChunkBytes = 256 << 10
	}
	if c.SnapshotMaxChain <= 0 {
		c.SnapshotMaxChain = 4
	}
	if c.FS == nil {
		c.FS = vfs.OS
	}
	return c
}

// validate rejects unusable configurations.
func (c Config) validate() error {
	n := len(c.PeerAddrs)
	if n == 0 {
		return fmt.Errorf("core: PeerAddrs is empty")
	}
	if c.ID < 0 || c.ID >= n {
		return fmt.Errorf("core: ID %d out of range [0,%d)", c.ID, n)
	}
	if c.ClientAddr == "" {
		return fmt.Errorf("core: ClientAddr is empty")
	}
	if c.TopologyEpoch < 0 {
		return fmt.Errorf("core: TopologyEpoch %d is negative", c.TopologyEpoch)
	}
	if c.PeerAddrs[c.ID] == "" {
		return fmt.Errorf("core: PeerAddrs[%d] (this replica) is empty", c.ID)
	}
	if c.TopologyEpoch == 0 {
		for i, a := range c.PeerAddrs {
			if a == "" {
				return fmt.Errorf("core: PeerAddrs[%d] is empty at epoch 0 (holes only arise from reconfiguration)", i)
			}
		}
	}
	if len(c.PeerClientAddrs) != 0 && len(c.PeerClientAddrs) != n {
		return fmt.Errorf("core: PeerClientAddrs has %d entries, PeerAddrs has %d", len(c.PeerClientAddrs), n)
	}
	return nil
}

// eventKind discriminates DispatcherQueue events (Sec. V-C2: "messages from
// other replicas, suspicions raised by the failure detector, batches ready
// to be proposed, and other housekeeping events").
type eventKind uint8

const (
	evPeerMsg eventKind = iota + 1
	evSuspect
	evProposalReady
	evCatchUpTimer
	evTruncate
	// evFastForward releases a group's fast-forward past a transferred
	// snapshot's cut. With snap set it is the ServiceManager's install ack —
	// the snapshot is durably persisted, so journaling the cut is now safe —
	// and the Protocol thread echoes an installed-marker into its decision
	// stream so the Merger jumps its position. With snap nil it is the
	// Merger's idempotent post-jump nudge to sibling groups.
	evFastForward
	// evDurable wakes the Protocol thread after the group's WAL Syncer
	// advanced the durable watermark, so votes gated on durability are
	// released. Carries no payload: the thread re-reads the watermark.
	evDurable
)

// event is one DispatcherQueue item.
type event struct {
	kind eventKind
	from int
	msg  wire.Message
	view wire.View       // evSuspect
	upTo wire.InstanceID // evTruncate, evFastForward
	gen  uint64          // evCatchUpTimer: query generation the timer was armed for
	snap *Snapshot       // evFastForward: durably installed snapshot (ack), or nil
}

// decisionItem is one decision-stream item: either a decided batch or a
// snapshot install step (from catch-up state transfer). Per-group streams
// carry group-local instance IDs; after the merge stage the ID is an index
// into the merged total order. The two-phase install travels as two
// different item shapes: first a snapshot announcement (meta set) flowing
// Merger → ServiceManager — the ServiceManager pulls the snapshot's chunks
// from peers, persists and restores it; the Merger's position does not move
// yet — then, once installed, an installed marker carrying the snapshot
// (snapshot set, installed=true) flowing each group's Protocol thread →
// Merger, which is what jumps the merge position.
type decisionItem struct {
	id        wire.InstanceID
	value     []byte             // encoded batch
	meta      *wire.SnapshotMeta // install request: pull + install this snapshot
	snapshot  *Snapshot
	installed bool
}

// groupDecision is one MergeQueue item: a per-group decision-stream item
// tagged with its ordering group.
type groupDecision struct {
	group int
	item  decisionItem
}

// clientConn is one connected client: its transport connection plus the
// bounded reply queue drained by the connection's writer goroutine. The
// queue carries wire.Message rather than *wire.ClientReply so topology
// updates (epoch redirects) can ride the same writer.
type clientConn struct {
	conn    transport.FrameConn
	replies *queue.Bounded[wire.Message]
}

// clientRegistry maps client IDs to their current connection so the
// ServiceManager can route replies to the right ClientIO writer. Sharded to
// keep ClientIO threads from contending (same rationale as the reply cache).
type clientRegistry struct {
	shards [16]struct {
		mu sync.Mutex
		m  map[uint64]*clientConn
	}
}

func newClientRegistry() *clientRegistry {
	r := &clientRegistry{}
	for i := range r.shards {
		r.shards[i].m = make(map[uint64]*clientConn)
	}
	return r
}

func (r *clientRegistry) shard(client uint64) *struct {
	mu sync.Mutex
	m  map[uint64]*clientConn
} {
	return &r.shards[(client*0x9E3779B97F4A7C15)>>60]
}

// set binds client to cc (overwriting any previous connection).
func (r *clientRegistry) set(client uint64, cc *clientConn) {
	s := r.shard(client)
	s.mu.Lock()
	s.m[client] = cc
	s.mu.Unlock()
}

// get returns the client's connection, or nil.
func (r *clientRegistry) get(client uint64) *clientConn {
	s := r.shard(client)
	s.mu.Lock()
	cc := s.m[client]
	s.mu.Unlock()
	return cc
}

// drop removes the binding if it still points at cc.
func (r *clientRegistry) drop(client uint64, cc *clientConn) {
	s := r.shard(client)
	s.mu.Lock()
	if s.m[client] == cc {
		delete(s.m, client)
	}
	s.mu.Unlock()
}
