package core

import (
	"errors"
	"fmt"
	"log"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gosmr/internal/executor"
	"gosmr/internal/fd"
	"gosmr/internal/paxos"
	"gosmr/internal/profiling"
	"gosmr/internal/queue"
	"gosmr/internal/replycache"
	"gosmr/internal/retrans"
	"gosmr/internal/snapshot"
	"gosmr/internal/wal"
	"gosmr/internal/wire"
)

// ordGroup is one ordering group: an independent Batcher → Protocol pipeline
// with its own queues, replicated log (owned by its Protocol goroutine's
// paxos.Node), retransmitter, and lock-free view/leader/watermark hints. A
// replica runs Config.Groups of these; their decision streams meet in the
// merge stage (merger.go), which recombines them into the single total order
// the ServiceManager consumes.
type ordGroup struct {
	idx int

	requestQ  *queue.Bounded[*wire.ClientRequest]
	proposalQ *queue.Bounded[[]byte]
	dispatchQ *queue.Bounded[event]

	retr *retrans.Retransmitter

	// wal is the group's write-ahead log (nil without Config.DataDir).
	// gated reports that votes must wait for the WAL's durable watermark
	// (SyncBatch group commit; SyncAlways is durable inline and SyncNone
	// opts out of the guarantee). gateLen and selfVoteLag are what the
	// Protocol thread last saw parked: votes in the durable gate, and open
	// instances whose own vote is not durable yet (QueueStats).
	wal         *wal.WAL
	gated       bool
	gateLen     atomic.Int32
	selfVoteLag atomic.Int32

	// Shared lock-free hints (the paper's "volatile variable" exceptions),
	// one set per group because views and watermarks are per group.
	viewHint    atomic.Int32
	leaderHint  atomic.Int32
	isLeader    atomic.Bool
	decidedUpTo atomic.Int64
	nextSlot    atomic.Int64 // slots this group has opened, for alignGroup
	mergedUpTo  atomic.Int64 // slots of this group the merge stage has consumed
	mergeWant   atomic.Int64 // slots the Merger needs this group to have opened
	openBatch   atomic.Int32 // Batcher → Protocol: batchIdle/batchOpen/batchCutAsked
	canPropose  atomic.Bool  // Protocol → Batcher: a batch flushed now is proposed at once
	readBarrier atomic.Int64 // first fresh instance of this leadership (lease reads)
}

// ordGroup.openBatch states: the Batcher marks the batch it is filling open,
// the Protocol thread may ask for it early (cutOpenBatch), the flush clears.
const (
	batchIdle int32 = iota
	batchOpen
	batchCutAsked
)

// gname derives a per-group thread/queue name; group 0 keeps the paper's
// original names so single-group profiles and statistics read unchanged.
func gname(base string, idx int) string {
	if idx == 0 {
		return base
	}
	return fmt.Sprintf("%s-g%d", base, idx)
}

// Replica is one node of the replicated state machine, wired per Fig. 3 of
// the paper, with the ordering layer generalized to Config.Groups parallel
// Paxos groups feeding a deterministic merge stage. Construct with
// NewReplica, then Start; Stop shuts every module down and waits for all
// goroutines.
type Replica struct {
	cfg    Config
	svc    Service
	cutter snapshot.Cutter // svc's snapshot contract (snapshot.Chunked)

	// Ordering groups (Batcher + Protocol pipelines).
	groups []*ordGroup

	// MergeQueue: per-group decision streams → Merger; DecisionQueue:
	// merged total order → ServiceManager; SendQueues: per peer (copy-on-
	// write slice indexed by replica ID; nil at own index and at removed
	// peers' holes — reconfiguration swaps the slice, see reshapeSendQueues).
	mergeQ    *queue.Bounded[groupDecision]
	decisionQ *queue.Bounded[decisionItem]
	sendQs    atomic.Pointer[[]*queue.Bounded[sendItem]]

	// topo is the committed epoch-stamped cluster topology (never nil after
	// NewReplica); pendingTopo hands a newly adopted topology to the Protocol
	// threads, which journal it and re-run Phase 1 at its BaseView. topoMu
	// serializes adoptTopology (including its side effects on the detector,
	// leases, and peer/client IO — see adoptTopology); reconfigMu serializes
	// proposeReconfig so two local proposals can never claim the same epoch;
	// faultCB makes Config.OnFaulted at-most-once.
	topo        atomic.Pointer[wire.Topology]
	pendingTopo atomic.Pointer[wire.Topology]
	topoMu      sync.Mutex
	reconfigMu  sync.Mutex
	faultCB     sync.Once

	// smTopo is the topology as of the config commands the ServiceManager
	// has applied in merged order — the epoch a snapshot cut is stamped
	// with. Owned by the ServiceManager thread (seeded before it starts);
	// kept separate from topo because a TopoUpdate from a peer can advance
	// topo ahead of this replica's own position in the log.
	smTopo *wire.Topology

	// Modules.
	clientIO *clientIO
	peerIO   *replicaIO
	detector *fd.Detector
	exec     *executor.Executor

	// Read path: leader-lease state and the ReadManager thread (lease.go,
	// reads.go), plus the applied-index waiter registry reads park in.
	leases  *leaseManager
	reads   *readMgr
	applied applyWaiters

	// groupKeys extracts conflict keys for group routing (nil when the
	// service is not ConflictAware; all requests then order in group 0).
	groupKeys func([]byte) []string

	// Snapshot machinery. snapshots holds the newest snapshot — the chain
	// the next delta cut extends, and what catch-up advertises and serves;
	// snapDisk owns the durable manifest/chunk layout (nil without DataDir);
	// puller is the chunk-pull client used during state transfer. drain and
	// forceFull are the ServiceManager's drain state: the in-flight
	// background drain (nil when idle), and the flag forcing the next cut to
	// be full after a failed cut/drain/persist. Chain ownership passes
	// ServiceManager → drainer goroutine → ServiceManager through the drain
	// handle's done channel; no lock is needed.
	snapshots *snapshotStore
	snapDisk  *snapDisk
	puller    *snapPuller
	drain     *drainJob
	forceFull bool

	replyCache *replycache.Sharded
	registry   *clientRegistry

	// execSeq is the execution scheduler's at-most-once table (client →
	// highest scheduled seq + assigned worker). Owned exclusively by the
	// ServiceManager thread; never touched elsewhere.
	execSeq map[uint64]schedEntry

	// maxSlot is the most slots any group has opened — the proposal
	// frontier, the row clock every group's leader fills its log against
	// (see alignGroup in merger.go).
	maxSlot atomic.Int64

	// bootSnap is the snapshot recovery booted from (nil without DataDir or
	// on a fresh start); the Merger seeds its position from it.
	bootSnap *Snapshot

	// Counters for metrics and experiments.
	executed       atomic.Uint64 // requests executed
	repliesSent    atomic.Uint64
	batchesMade    atomic.Uint64
	decidedMerged  atomic.Uint64 // non-empty batches delivered in merged order
	padsProposed   atomic.Uint64 // no-op batches proposed to unstall the merge
	droppedSends   atomic.Uint64
	stateTransfers atomic.Uint64 // snapshots installed from peers (catch-up)
	localReads     atomic.Uint64 // reads served on the lease/read-index path
	droppedBacklog atomic.Uint64 // stale SendQueue messages dropped on reconnect

	// Snapshot health counters (satellite observability: failures were
	// previously swallowed).
	snapshotFailures atomic.Uint64 // failed cut/drain/persist/pull stages
	transferResumed  atomic.Uint64 // staged bytes reused by resumed pulls
	lastSnapFailLog  atomic.Int64  // rate limit for snapshot failure logging

	// Disk-fault state. faulted latches when any group's WAL fail-stops
	// (write/fsync/seal error on the append path): the replica stops
	// participating — no heartbeats, no new output past the durable
	// watermark — so the quorum continues without it instead of being fed
	// acknowledgements the disk may not hold (the fsyncgate rule: a failed
	// fsync says nothing durable about the pages it covered, so retrying is
	// unsound). walFaults counts the fail-stop events; quarantines counts
	// corrupt on-disk artifacts (WAL segments, snapshot manifests) renamed
	// aside to *.corrupt during recovery.
	faulted     atomic.Bool
	walFaults   atomic.Uint64
	quarantines atomic.Uint64

	stop    chan struct{}
	stopped sync.Once
	started bool
	wg      sync.WaitGroup
}

// NewReplica validates cfg and builds an unstarted replica around svc.
func NewReplica(cfg Config, svc Service) (*Replica, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if svc == nil {
		return nil, fmt.Errorf("core: nil Service")
	}
	cfg = cfg.withDefaults()

	r := &Replica{
		cfg:       cfg,
		svc:       svc,
		cutter:    snapshot.Chunked(svc),
		groups:    make([]*ordGroup, cfg.Groups),
		mergeQ:    queue.NewBounded[groupDecision]("MergeQueue", decisionQueueCap),
		decisionQ: queue.NewBounded[decisionItem]("DecisionQueue", decisionQueueCap),
		snapshots: &snapshotStore{},
		registry:  newClientRegistry(),
		execSeq:   make(map[uint64]schedEntry),
		stop:      make(chan struct{}),
	}
	seed := seedTopology(cfg)
	if err := seed.Validate(); err != nil {
		return nil, fmt.Errorf("core: seed topology: %w", err)
	}
	if !seed.Active(cfg.ID) {
		return nil, fmt.Errorf("core: replica %d is not an active member of the seed topology", cfg.ID)
	}
	r.topo.Store(seed)
	r.smTopo = seed
	r.puller = &snapPuller{resp: make(chan pulledChunk, 4)}
	if cfg.DataDir != "" {
		r.snapDisk = newSnapDisk(filepath.Join(cfg.DataDir, "snapshots"), cfg.FS)
	}
	for i := range r.groups {
		r.groups[i] = &ordGroup{
			idx:       i,
			requestQ:  queue.NewBounded[*wire.ClientRequest](gname("RequestQueue", i), requestQueueCap),
			proposalQ: queue.NewBounded[[]byte](gname("ProposalQueue", i), cfg.ProposalQueueCap),
			dispatchQ: queue.NewBounded[event](gname("DispatcherQueue", i), dispatchQueueCap),
		}
	}
	r.sendQs.Store(&[]*queue.Bounded[sendItem]{})
	r.reshapeSendQueues(seed)
	r.replyCache = replycache.NewSharded()
	// Execution stage: parallel when the service declares conflicts and more
	// than one worker is configured, otherwise the sequential fallback that
	// runs inline on the ServiceManager thread.
	if ca, ok := svc.(ConflictAware); ok {
		r.groupKeys = ca.Keys
	}
	r.exec = executor.New(executor.Config{
		Workers:   cfg.ExecutorWorkers,
		Keys:      r.groupKeys,
		QueueCap:  executorQueueCap,
		Profiling: cfg.Profiling,
	})
	for _, g := range r.groups {
		g.leaderHint.Store(int32(seed.Leader(seed.BaseView)))
		g.viewHint.Store(int32(seed.BaseView))
	}
	r.leases = newLeaseManager(cfg.ID, cfg.LeaseDuration, cfg.MaxClockSkew, seed)
	r.applied.completed = -1
	return r, nil
}

// ID returns this replica's ID.
func (r *Replica) ID() int { return r.cfg.ID }

// Groups returns the number of ordering groups.
func (r *Replica) Groups() int { return len(r.groups) }

// View returns group 0's current view (lock-free hint).
func (r *Replica) View() wire.View { return wire.View(r.groups[0].viewHint.Load()) }

// Leader returns group 0's current leader ID (lock-free hint). Groups
// normally share leadership since one failure detector drives them all.
func (r *Replica) Leader() int { return int(r.groups[0].leaderHint.Load()) }

// IsLeader reports whether this replica currently leads group 0 (Phase 1
// complete).
func (r *Replica) IsLeader() bool { return r.groups[0].isLeader.Load() }

// DecidedUpTo returns group 0's decision watermark.
func (r *Replica) DecidedUpTo() wire.InstanceID {
	return wire.InstanceID(r.groups[0].decidedUpTo.Load())
}

// Executed returns the number of requests executed so far.
func (r *Replica) Executed() uint64 { return r.executed.Load() }

// DecidedBatches returns the number of non-empty batches delivered in merged
// order so far (the ordering layer's useful output; merge-padding no-ops are
// excluded).
func (r *Replica) DecidedBatches() uint64 { return r.decidedMerged.Load() }

// PadsProposed returns the number of no-op batches this replica proposed to
// keep the merge stage advancing across idle groups.
func (r *Replica) PadsProposed() uint64 { return r.padsProposed.Load() }

// LeaseValid reports whether this replica currently holds a valid leader
// lease — i.e. whether it may serve linearizable reads from local state
// without ordering them.
func (r *Replica) LeaseValid() bool { return r.leaseValid(time.Now()) }

// LocalReads returns the number of reads served on the lease/read-index
// path (never ordered through the log).
func (r *Replica) LocalReads() uint64 { return r.localReads.Load() }

// DroppedBacklog returns the number of stale SendQueue messages dropped
// when a peer connection was replaced.
func (r *Replica) DroppedBacklog() uint64 { return r.droppedBacklog.Load() }

// StateTransfers returns the number of snapshots this replica installed
// from peers (catch-up state transfer). A replica restarted from its own
// DataDir recovers its durable prefix locally, so the restart tests assert
// this stays zero while survivors retain their logs.
func (r *Replica) StateTransfers() uint64 { return r.stateTransfers.Load() }

// SnapshotFailures returns the number of snapshot stages — cut, drain,
// persist, transfer pull — that have failed since start. A replica with a
// rising count keeps running on its full WAL, but its log is not being
// truncated; operators should alert on this.
func (r *Replica) SnapshotFailures() uint64 { return r.snapshotFailures.Load() }

// TransferResumedBytes returns the total bytes of staged snapshot data
// that resumed pulls reused instead of refetching (0 until a transfer
// survives a restart or reconnect mid-stream).
func (r *Replica) TransferResumedBytes() uint64 { return r.transferResumed.Load() }

// Faulted reports whether this replica has fail-stopped on a WAL disk
// fault. A faulted replica has shut down (or is shutting down): it sends no
// heartbeats and acknowledges nothing, so the rest of the quorum elects
// around it. Restarting from the same DataDir replays whatever the disk
// actually holds — the fail-stop guarantees that is a prefix of what was
// acknowledged.
func (r *Replica) Faulted() bool { return r.faulted.Load() }

// WALFaults returns the number of fail-stop WAL disk faults observed (at
// most one per group; the first latches the replica into Faulted).
func (r *Replica) WALFaults() uint64 { return r.walFaults.Load() }

// DiskQuarantines returns the number of corrupt on-disk artifacts (WAL
// segments, snapshot manifests) this replica renamed aside to *.corrupt —
// at boot or while scanning — instead of refusing to start or re-tripping
// on them every scan.
func (r *Replica) DiskQuarantines() uint64 { return r.quarantines.Load() }

// enterFault latches the fail-stop state and tears the replica down. It is
// the WAL's OnFault callback target, invoked from whatever goroutine first
// hit the disk fault — possibly a Protocol thread mid-drain — so the Stop
// must run on its own goroutine: Stop waits for every module including the
// caller, and wal.Close joins the Syncer that may be the caller.
func (r *Replica) enterFault(group int, err error) {
	r.walFaults.Add(1)
	if r.faulted.CompareAndSwap(false, true) {
		log.Printf("gosmr: replica %d: wal group %d disk fault, fail-stopping: %v", r.cfg.ID, group, err)
		r.fireFaulted(fmt.Sprintf("wal group %d disk fault: %v", group, err))
		go r.Stop()
	}
}

// maybeShrinkWAL reacts to an out-of-space error from a snapshot stage by
// dropping every group's WAL retention extras (catch-up generations and the
// byte-budget tail) down to the hard floor, then letting the failed stage
// retry on the next cut. ENOSPC is the one disk fault where degrading
// retention actually helps: the bytes we hold for lagging peers are exactly
// the bytes the checkpoint needs.
func (r *Replica) maybeShrinkWAL(err error) {
	if !errors.Is(err, syscall.ENOSPC) {
		return
	}
	removed := 0
	for _, g := range r.groups {
		if g.wal != nil {
			removed += g.wal.ShrinkRetention()
		}
	}
	if removed > 0 {
		log.Printf("gosmr: replica %d: out of space, dropped %d retained wal segment(s)", r.cfg.ID, removed)
	}
}

// ReplyCacheBytes returns the canonical (sorted, deterministic) marshaled
// reply cache — the byte string the cluster determinism tests compare
// across replicas, worker counts, and restarts.
func (r *Replica) ReplyCacheBytes() []byte { return r.replyCache.Marshal() }

// SnapshotImage returns the newest snapshot as one byte string — its
// manifest (cut, groups, topology, every chunk's length and CRC) followed
// by its chunks, reply cache last — or nil if no snapshot has been cut yet.
// Replicas that executed the same prefix must produce byte-identical images
// regardless of group count or worker count — the cluster determinism
// tests compare exactly this. Built on each call.
func (r *Replica) SnapshotImage() []byte {
	if snap := r.snapshots.get(); snap != nil {
		return snap.image()
	}
	return nil
}

// QueueStats reports the time-averaged lengths of the three queues of
// Table I (per ordering group) plus the merge and decision queues and, when
// parallel execution is enabled, each executor worker's queue
// (ExecutorQueue-i). With several ordering groups it also carries each
// group's instantaneous merge lag, MergeLag-g<i>: slots the group has
// decided that the merge has not consumed — the group that stays high is
// waiting on its siblings, the ones at zero are those it waits for. Under
// group commit each group adds DurableGate-g<i>, the votes parked behind the
// WAL right now, and SelfVoteLag-g<i>, the open instances this leader
// proposed whose own vote is not durable yet: a lag equal to the instances
// in flight means this replica's own vote is among those each commit waits
// for, a lag near zero with instances in flight means commits wait for the
// followers.
func (r *Replica) QueueStats() map[string]float64 {
	stats := map[string]float64{
		"MergeQueue":    r.mergeQ.AvgLen(),
		"DecisionQueue": r.decisionQ.AvgLen(),
	}
	for _, g := range r.groups {
		stats[g.requestQ.Name()] = g.requestQ.AvgLen()
		stats[g.proposalQ.Name()] = g.proposalQ.AvgLen()
		stats[g.dispatchQ.Name()] = g.dispatchQ.AvgLen()
		if len(r.groups) > 1 {
			stats[fmt.Sprintf("MergeLag-g%d", g.idx)] = float64(g.decidedUpTo.Load() - g.mergedUpTo.Load())
		}
		if g.gated {
			stats[fmt.Sprintf("DurableGate-g%d", g.idx)] = float64(g.gateLen.Load())
			stats[fmt.Sprintf("SelfVoteLag-g%d", g.idx)] = float64(g.selfVoteLag.Load())
		}
	}
	for name, avg := range r.exec.QueueStats() {
		stats[name] = avg
	}
	return stats
}

// ExecStats returns the executor's dependency-scheduler counters —
// dispatched tasks, global barriers, multi-key join nodes, fences enqueued,
// and fences that had to wait at their join. Safe to call while running.
func (r *Replica) ExecStats() executor.Stats { return r.exec.Stats() }

// ResetQueueStats restarts queue-average tracking (to discard warm-up).
func (r *Replica) ResetQueueStats() {
	for _, g := range r.groups {
		g.requestQ.ResetStats()
		g.proposalQ.ResetStats()
		g.dispatchQ.ResetStats()
	}
	r.mergeQ.ResetStats()
	r.decisionQ.ResetStats()
	r.exec.ResetQueueStats()
}

// Start launches every module. It returns once all listeners are bound and
// all module goroutines are running.
func (r *Replica) Start() error {
	if r.started {
		return fmt.Errorf("core: replica already started")
	}
	r.started = true

	// Crash-restart recovery: rebuild per-group logs and views from the
	// data directory before any module runs, and restore the service from
	// the newest durable snapshot so re-emitted decisions apply on top of
	// exactly the state they followed.
	var boot *bootState
	if r.cfg.DataDir != "" {
		b, err := r.recoverBoot()
		if err != nil {
			return err
		}
		boot = b
		if b.topo != nil {
			// The disk refines the seed topology (same epoch, committed
			// BaseView — recoverBoot refused any NEWER on-disk epoch):
			// install it before any module captures the shape.
			r.topoMu.Lock()
			r.topo.Store(b.topo)
			r.reshapeSendQueues(b.topo)
			r.topoMu.Unlock()
			r.leases.setTopology(b.topo)
			r.smTopo = b.topo
			log.Printf("gosmr: replica %d: booting in topology epoch %d (base view %d, from disk)",
				r.cfg.ID, b.topo.Epoch, b.topo.BaseView)
		}
		if b.snap != nil {
			if err := r.restoreFromSnapshot(b.snap); err != nil {
				b.closeWALs()
				return err
			}
			r.bootSnap = b.snap
			r.applied.completed = int64(b.snap.Cut)
		}
		topo := r.topo.Load()
		for i, g := range r.groups {
			gb := boot.groups[i]
			if gb.view < topo.BaseView {
				// A crash between commit and handoff can leave a group's
				// durable view below the adopted epoch's base view; flooring
				// it keeps every view this epoch uses on the new leader map.
				gb.view = topo.BaseView
				boot.groups[i] = gb
			}
			g.wal = gb.wal
			g.gated = r.cfg.SyncPolicy == wal.SyncBatch
			g.decidedUpTo.Store(int64(gb.log.FirstUndecided()))
			g.nextSlot.Store(int64(gb.log.Next()))
			g.viewHint.Store(int32(gb.view))
			g.leaderHint.Store(int32(topo.Leader(gb.view)))
		}
	}

	for _, g := range r.groups {
		g.retr = retrans.New(retrans.Options{
			Period: r.cfg.RetransPeriod,
			Thread: r.cfg.Profiling.Register(gname("Retransmitter", g.idx)),
		})
	}

	bootTopo := r.topo.Load()
	r.detector = fd.New(fd.Options{
		ID: r.cfg.ID, Topology: bootTopo,
		HeartbeatInterval: r.cfg.HeartbeatInterval,
		SuspectTimeout:    r.cfg.SuspectTimeout,
		SendHeartbeat:     r.sendHeartbeat,
		// Leases renew on heartbeats, so a leader under full proposal load
		// must keep sending them; and a follower holding a promise must not
		// help elect a replacement until the promise expires.
		ForceHeartbeat: r.leases.enabled,
		HoldSuspect:    r.leases.holdSuspect,
		Suspect: func(v wire.View) {
			// One failure detector serves every group: each maps the
			// suspicion onto its own view (see runProtocol).
			for _, g := range r.groups {
				_, _ = g.dispatchQ.TryPut(event{kind: evSuspect, view: v})
			}
		},
		Thread: r.cfg.Profiling.Register("FailureDetector"),
	})
	if boot != nil {
		// The failure detector resumes from the recovered view: if that
		// view's leader is gone, the suspect timeout rotates past it.
		r.detector.UpdateView(boot.groups[0].view)
	}

	stopSatellites := func() {
		r.detector.Stop()
		for _, g := range r.groups {
			g.retr.Stop()
		}
		boot.closeWALs()
	}

	// ReplicaIO first: the protocol needs peer links to exist (sends to a
	// not-yet-connected peer are buffered in its SendQueue).
	peerIO, err := newReplicaIO(r)
	if err != nil {
		stopSatellites()
		return err
	}
	r.peerIO = peerIO

	clientIO, err := newClientIO(r)
	if err != nil {
		r.peerIO.close()
		stopSatellites()
		return err
	}
	r.clientIO = clientIO

	// Per-group Batcher and Protocol threads (Sec. V-C1/V-C2, one pipeline
	// per ordering group). With a data directory, each node boots from its
	// recovered log and view, and the log starts journaling to the group's
	// WAL from here on (replay itself is never re-journaled). A fresh start
	// begins at the boot epoch's base view, so every view the epoch uses
	// resolves on its leader map.
	for _, g := range r.groups {
		opts := paxos.Options{
			ID:        r.cfg.ID,
			Window:    r.cfg.Window,
			Group:     g.idx,
			Groups:    len(r.groups),
			Snapshots: r.snapshots.meta,
			Topology:  bootTopo,
			View:      bootTopo.BaseView,
		}
		if boot != nil {
			gb := boot.groups[g.idx]
			gb.log.SetJournal(walJournal{w: gb.wal})
			opts.Log = gb.log
			opts.View = gb.view
			opts.DeferSelfVote = g.gated
			// Catch-up tier 2: serve decided values the in-memory log has
			// truncated from the group's WAL (it retains one checkpoint
			// generation below the cut), so moderately lagging peers refill
			// from this replica's disk instead of taking a full snapshot.
			w := gb.wal
			opts.ColdDecided = func(from, to wire.InstanceID, maxEntries int) ([]wire.DecidedValue, bool) {
				return w.ReadDecidedRange(from, to, maxEntries)
			}
		}
		node := paxos.NewNode(opts)
		r.wg.Add(2)
		go r.runBatcher(g)
		go r.runProtocol(g, node)
	}

	// Merge stage: recombines the per-group decision streams.
	r.wg.Add(1)
	go r.runMerger()

	// ReadManager: the lease/read-index read path (reads.go).
	r.reads = newReadMgr(r)
	r.wg.Add(1)
	go r.reads.run()

	// Execution workers (parallel mode only), then the ServiceManager
	// thread (Sec. V-D) that schedules onto them.
	r.exec.Start()
	r.wg.Add(1)
	go r.runServiceManager()

	return nil
}

// Stop shuts the replica down and waits for every goroutine to exit. Safe to
// call more than once.
func (r *Replica) Stop() {
	r.stopped.Do(func() {
		close(r.stop)
		// Closing the queues unblocks every module loop; closing the
		// transports unblocks every I/O goroutine.
		for _, g := range r.groups {
			g.requestQ.Close()
			g.proposalQ.Close()
			g.dispatchQ.Close()
		}
		r.mergeQ.Close()
		r.decisionQ.Close()
		if r.reads != nil {
			r.reads.q.Close()
		}
		for _, q := range *r.sendQs.Load() {
			if q != nil {
				q.Close()
			}
		}
		// The executor is NOT stopped here: Submit and Stop would race on
		// the worker queues (a Put slipping into a just-closed queue after
		// its worker exited would leak an inflight count and hang Quiesce).
		// Instead the ServiceManager — the only Submit caller — stops the
		// executor itself once the closed DecisionQueue drains. Workers
		// never block (replies use TryPut), so a scheduler blocked on a
		// full worker queue always unblocks without intervention.
		if r.clientIO != nil {
			r.clientIO.close()
		}
		if r.peerIO != nil {
			r.peerIO.close()
		}
		if r.detector != nil {
			r.detector.Stop()
		}
		for _, g := range r.groups {
			if g.retr != nil {
				g.retr.Stop()
			}
		}
	})
	r.wg.Wait()
	// WALs close only after every journaling goroutine has exited. A
	// graceful close drains pending appends; a vote it would lose never
	// left this process (votes are durability-gated).
	for _, g := range r.groups {
		if g.wal != nil {
			g.wal.Close()
		}
	}
}

// sendHeartbeat is the failure detector's leader-role callback: for every
// group this replica leads it emits a heartbeat carrying that group's
// decision watermark straight onto the peer's SendQueue, without involving
// the Protocol threads.
func (r *Replica) sendHeartbeat(peer int) {
	if r.faulted.Load() {
		// A fail-stopped replica must look dead: heartbeats from a leader
		// whose WAL cannot accept writes would keep followers from electing
		// a working one.
		return
	}
	for _, g := range r.groups {
		if !g.isLeader.Load() {
			continue
		}
		hb := &wire.Heartbeat{
			View:        wire.View(g.viewHint.Load()),
			DecidedUpTo: wire.InstanceID(g.decidedUpTo.Load()),
		}
		if g.idx == 0 {
			// Lease grants ride group-0 heartbeats only; the lease covers
			// the whole replica (validity checks every group's hints).
			if ms, seq, ok := r.leases.grant(peer); ok {
				hb.LeaseMS, hb.LeaseSeq = ms, seq
			}
		}
		r.enqueueSend(peer, g.idx, hb)
	}
}

// groupFor routes a client request to an ordering group by its first
// conflict key (executor.KeyHash, stable across replicas). Keyless/global
// requests — and every request of a non-ConflictAware service — order in
// group 0. Routing only balances load; the merge stage makes the total
// order deterministic regardless of where a request was ordered.
//
// Note the leader pays one extra Keys() extraction per request here, on the
// ClientIO path, in addition to the executor's post-consensus extraction —
// the two run in different pipeline stages, and carrying keys across
// consensus would put them on the wire. Keep Keys cheap.
func (r *Replica) groupFor(payload []byte) int {
	if len(r.groups) == 1 || r.groupKeys == nil {
		return 0
	}
	keys := r.groupKeys(payload)
	if len(keys) == 0 {
		return 0
	}
	return int(executor.KeyHash(keys[0]) % uint64(len(r.groups)))
}

// sendItem is one SendQueue entry: a peer message and the ordering group it
// belongs to (0 for group-agnostic traffic). The sender stamps both, with
// its current epoch, into the frame's header.
type sendItem struct {
	group int32
	msg   wire.Message
}

// enqueueSend places group's msg on peer's SendQueue without blocking; under
// overload messages are dropped and recovered by retransmission (the paper's
// Protocol thread never blocks on socket writes, Sec. V-B).
func (r *Replica) enqueueSend(peer, group int, msg wire.Message) {
	q := r.sendQueue(peer)
	if q == nil {
		return
	}
	if ok, _ := q.TryPut(sendItem{int32(group), msg}); !ok {
		r.droppedSends.Add(1)
	}
}

// broadcast enqueues group's msg to every active peer.
func (r *Replica) broadcast(group int, msg wire.Message) {
	for _, q := range *r.sendQs.Load() {
		if q != nil {
			if ok, _ := q.TryPut(sendItem{int32(group), msg}); !ok {
				r.droppedSends.Add(1)
			}
		}
	}
}

// ClientAddr returns the bound client-facing address (useful when the
// configured address used an ephemeral port).
func (r *Replica) ClientAddr() string {
	if r.clientIO == nil {
		return r.cfg.ClientAddr
	}
	return r.clientIO.Addr()
}

// profThread registers a named thread when profiling is enabled.
func (r *Replica) profThread(name string) *profiling.Thread {
	return r.cfg.Profiling.Register(name)
}
