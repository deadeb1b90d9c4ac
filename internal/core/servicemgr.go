package core

import (
	"fmt"

	"gosmr/internal/executor"
	"gosmr/internal/profiling"
	"gosmr/internal/replycache"
	"gosmr/internal/snapshot"
	"gosmr/internal/wire"
)

// schedEntry is the scheduler's per-client at-most-once record: the highest
// sequence number scheduled so far and the worker its execution was
// dispatched to (executor.Inline for inline/global execution and entries
// rebuilt from a snapshot).
type schedEntry struct {
	seq    uint64
	worker int
}

// runServiceManager is the ServiceManager module's thread (Sec. V-D; the
// paper's profiles label it "Replica"). It drains the DecisionQueue in log
// order and acts as the execution scheduler: each request is classified for
// at-most-once semantics and handed to the executor, which either runs it
// inline (sequential fallback — the paper's original single-threaded design)
// or dispatches it to a conflict-keyed worker goroutine so independent
// requests execute concurrently. Snapshot points quiesce the workers first,
// so a snapshot always captures a state equivalent to a serial prefix of the
// log.
func (r *Replica) runServiceManager() {
	defer r.wg.Done()
	// The scheduler owns executor shutdown: it is the only goroutine that
	// submits, so stopping from here (after the DecisionQueue drains) can
	// never race with a submit — see Replica.Stop.
	defer r.exec.Stop()
	// An in-flight background drain owns the snapshot chain and disk
	// layout; wait for it so shutdown never abandons a half-written
	// generation that the next commit would then reference.
	defer r.awaitDrain()
	th := r.profThread("Replica")
	th.Transition(profiling.StateBusy)
	defer th.Transition(profiling.StateOther)

	// reqScratch is the deliver path's reused decode storage: the slice
	// cycles across batches and the request structs come from the shared
	// pool, released by whichever execution path finishes with each one.
	// Payloads borrow from the batch value, which the replicated log owns
	// and never mutates.
	var reqScratch []*wire.ClientRequest
	// floor is the merged index of the newest installed snapshot: decisions
	// at or below it arrive only in the window between this thread's restore
	// and the Merger's position jump (the two-phase install is asynchronous)
	// and are already part of the restored state — re-scheduling them would
	// at best resend cached replies and at worst cut a mislabeled snapshot.
	floor := int64(-1)
	if r.bootSnap != nil {
		floor = int64(r.bootSnap.Cut)
	}
	// position is the merged index this thread has fully scheduled; the
	// applied-waiter registry (reads.go) publishes it as `completed` once the
	// executor quiesces, which is what lease/follower reads wait on.
	position := floor
	for {
		item, err := r.decisionQ.Take(th)
		if err != nil {
			return
		}
		if item.meta != nil {
			floor = r.installFromMeta(th, item.meta, floor)
			if floor > position {
				position = floor
			}
			r.bumpApplied(floor)
			continue
		}
		if item.id < 0 {
			// registerApplied's wake-up nudge: no decision to process, just
			// re-check the waiters against the current position.
			r.serveApplied(th, position)
			continue
		}
		if int64(item.id) <= floor {
			continue // covered by an installed snapshot
		}
		reqs, err := wire.DecodeBatchInto(reqScratch, item.value)
		if err != nil {
			continue // corrupt batch cannot happen with our own leader; skip
		}
		reqScratch = reqs
		if len(reqs) > 0 {
			r.decidedMerged.Add(1)
		}
		if len(reqs) == 1 && reqs[0].ClientID == wire.ConfigClientID {
			// A configuration command, ordered like any batch: its merged
			// index is the deterministic reconfiguration point. It never
			// reaches the executor or the reply cache — adopting the
			// topology IS its execution, identically on every replica.
			r.applyReconfig(reqs[0].Payload)
			wire.Release(reqs[0])
			reqs[0] = nil
			position = int64(item.id)
			r.maybeSnapshot(th, item.id)
			r.serveApplied(th, position)
			continue
		}
		for i, req := range reqs {
			r.scheduleOne(th, req)
			reqs[i] = nil
		}
		position = int64(item.id)
		r.maybeSnapshot(th, item.id)
		r.serveApplied(th, position)
	}
}

// scheduleOne classifies one decided request and dispatches it. The
// classification (execute / resend cached reply / drop as stale) is a pure
// function of the log prefix — the scheduler sees the log in order on every
// replica and keeps its own table — so all replicas make identical
// decisions regardless of how worker execution interleaves. (Classifying at
// execution time against the shared reply cache would be racy under
// parallel execution: a client's seq n+1 on one worker could outrun its seq
// n on another and flip n's status on some replicas but not others.)
func (r *Replica) scheduleOne(th *profiling.Thread, req *wire.ClientRequest) {
	last, seen := r.execSeq[req.ClientID]
	switch {
	case !seen || req.Seq > last.seq:
		// New request: execute. Record the worker so a later duplicate can
		// be ordered behind this execution. The executed closure owns the
		// pooled request struct and releases it when done — in inline mode
		// that happens during Submit, so the scheduler reads its copy of
		// the identity fields, never the struct, afterwards.
		clientID, seq := req.ClientID, req.Seq
		w := r.exec.Submit(th, req.Payload, func(wth *profiling.Thread) {
			r.executeNew(wth, req)
			wire.Release(req)
		})
		r.execSeq[clientID] = schedEntry{seq: seq, worker: w}
	case req.Seq == last.seq:
		// Duplicate of the client's most recent request (e.g. a retry that
		// got ordered twice): do not re-execute; resend the cached reply,
		// ordered behind the original execution on its worker.
		r.exec.SubmitTo(th, last.worker, func(wth *profiling.Thread) {
			r.resendCached(wth, req)
			wire.Release(req)
		})
	default:
		// Stale: older than the client's most recent request. The reply is
		// gone; ignore.
		wire.Release(req)
	}
}

// executeNew applies a request the scheduler classified as new and routes
// the reply. It runs on the ServiceManager thread in sequential mode and on
// executor workers in parallel mode; everything it touches is safe for that
// (sharded reply cache, atomic counters, lock-free registry reads,
// non-blocking reply enqueue). Reply-cache updates from the same client's
// consecutive requests may race across workers, but Update keeps the
// highest sequence number, so every replica converges to the same cache.
func (r *Replica) executeNew(th *profiling.Thread, req *wire.ClientRequest) {
	reply := r.svc.Execute(req.Payload)
	r.replyCache.Update(th, req.ClientID, req.Seq, reply)
	r.executed.Add(1)
	r.sendReply(req, reply)
}

// resendCached re-sends the reply of an already-executed request. Scheduled
// behind the original execution, so the cache normally holds it; a later
// request from the same client may have overwritten it meanwhile, in which
// case the client has moved on and nothing needs sending.
func (r *Replica) resendCached(th *profiling.Thread, req *wire.ClientRequest) {
	reply, status := r.replyCache.Lookup(th, req.ClientID, req.Seq)
	if status != replycache.StatusCached {
		return
	}
	r.sendReply(req, reply)
}

// sendReply hands a reply to the ClientIO writer of the connection owning
// the client, if it is connected here.
func (r *Replica) sendReply(req *wire.ClientRequest, reply []byte) {
	cc := r.registry.get(req.ClientID)
	if cc == nil {
		return // client not connected here (we may be a follower)
	}
	out := wire.NewClientReply()
	out.ClientID, out.Seq = req.ClientID, req.Seq
	out.OK, out.Redirect, out.Payload = true, wire.NoRedirect, reply
	if ok, _ := cc.replies.TryPut(out); ok {
		r.repliesSent.Add(1)
	} else {
		wire.Release(out)
	}
}

// installFromMeta handles a snapshot announcement from the Merger: the
// replica is too far behind for log or WAL catch-up, and a peer advertised
// a snapshot it should install. The snapshot never arrives inline — only
// its metadata did; this pulls its manifest and then its chunks from peers,
// one verified chunk per frame (resumable across restarts and reconnects,
// see snaptransfer.go), then runs the install. The pull is synchronous on
// this thread: a replica this far behind has nothing better to do, and
// responses arrive via the reader threads, so nothing deadlocks.
// Pull failure refuses the install with nothing changed; the requesting
// group's catch-up timer re-surfaces the metadata and the pull resumes from
// the staged chunks.
//
// An announcement at or below the current floor is a duplicate from a
// catch-up retry: the state is already installed and durable, so only the
// acks are resent — healing any group whose fast-forward nudge was lost.
func (r *Replica) installFromMeta(th *profiling.Thread, meta *wire.SnapshotMeta, floor int64) int64 {
	if int64(meta.LastIncluded) <= floor {
		if snap := r.snapshots.get(); snap != nil && snap.Cut >= meta.LastIncluded {
			r.sendInstallAcks(snap)
		}
		return floor
	}
	// The pull stages chunks into the disk layout and the install replaces
	// the chain, both of which the drainer shares: wait it out first.
	r.awaitDrain()
	snap, err := r.pullSnapshot(*meta)
	if err != nil {
		r.snapshotFailure("pulling transferred snapshot", meta.LastIncluded, err)
		return floor
	}
	return r.installSnapshot(th, snap, floor)
}

// installSnapshot is phase 2 of the transferred-snapshot install: persist
// FIRST, then restore, then ack. The ordering is the crash-consistency
// invariant — no group journals its cut (that happens only on the
// evFastForward ack this sends) until the snapshot covering that cut is
// durably committed, at manifest granularity: the pull staged and fsynced
// every chunk file, the manifest rename is the commit point, so a kill at
// ANY chunk boundary of the transfer reboots cleanly from the DataDir. On
// persist failure the install is refused outright: nothing restored, no
// acks, no state changed anywhere; catch-up retries. Workers are quiesced before the restore so no
// in-flight execution observes the swap, and the scheduler's at-most-once
// table is rebuilt from the restored reply cache (with Inline workers:
// those executions are part of the snapshot, so nothing needs ordering
// behind them).
func (r *Replica) installSnapshot(th *profiling.Thread, snap *Snapshot, floor int64) int64 {
	crashPoint("transfer-install")
	r.exec.Quiesce(th)
	if r.snapDisk != nil {
		if err := r.snapDisk.commit(snap); err != nil {
			r.snapshotFailure("persisting transferred snapshot", snap.Cut, err)
			r.maybeShrinkWAL(err)
			return floor
		}
	}
	crashPoint("transfer-persisted")
	if err := r.restoreFromSnapshot(snap); err != nil {
		r.snapshotFailure("restoring transferred snapshot", snap.Cut, err)
		return floor
	}
	r.forceFull = false
	r.stateTransfers.Add(1)
	r.sendInstallAcks(snap)
	return int64(snap.Cut)
}

// sendInstallAcks releases every group's fast-forward past a durably
// installed snapshot. Best-effort per group (TryPut): the Merger re-nudges
// all groups when the first marker jumps it, and a duplicate install
// request from the requester's catch-up retry resends the acks, so a lost
// nudge heals instead of wedging the group behind the cut.
func (r *Replica) sendInstallAcks(snap *Snapshot) {
	for _, g := range r.groups {
		cut := wire.GroupCut(snap.Cut, len(r.groups), g.idx)
		_, _ = g.dispatchQ.TryPut(event{kind: evFastForward, upTo: cut, snap: snap})
	}
}

// maybeSnapshot cuts a service snapshot every SnapshotEvery merged
// instances. The executor is quiesced just long enough to mark the cut and
// marshal the reply cache — all requests up to and including merged index
// executedID have finished, none beyond it have been dispatched, so the cut
// is exactly the serial state after executedID — then workers resume while
// a drainer goroutine packs chunks, publishes the assembled snapshot, and
// commits it to disk (which is what triggers log truncation; see runDrain).
// Every replica cuts at the same merged indices with the same cluster-wide
// full/delta cadence, so snapshots stay byte-identical cluster-wide.
func (r *Replica) maybeSnapshot(th *profiling.Thread, executedID wire.InstanceID) {
	every := r.cfg.SnapshotEvery
	if every <= 0 || (int64(executedID)+1)%int64(every) != 0 {
		return
	}
	// If the previous interval's drain is somehow still running, block on
	// it rather than skip: every replica must cut at every point (a skipped
	// cut here would diverge the delta chains cluster-wide).
	r.awaitDrain()
	full := r.forceFull || r.snapshots.get() == nil || r.fullCutDue(executedID)
	r.exec.Quiesce(th)
	src, isFull, err := r.cutter.CutSnapshot(full)
	if err != nil {
		r.snapshotFailure("cutting snapshot", executedID, err)
		r.forceFull = true // this cut is missing from the chain
		return
	}
	r.forceFull = false
	rc := r.replyCache.Marshal()
	// Stamp the cut with the ServiceManager's log-ordered topology: every
	// replica cutting at this merged index has applied exactly the same
	// config commands, so the stamp is deterministic.
	topo := wire.EncodeTopology(r.smTopo)
	job := &drainJob{done: make(chan struct{})}
	r.drain = job
	go r.runDrain(job, src, executedID, isFull, rc, topo)
}

// restoreFromSnapshot replaces service, reply-cache, and execution-scheduler
// state from snap, adopts its topology, and publishes it for catch-up
// responders — the one sequence shared by live snapshot installs and
// crash-restart boot, so both paths rebuild byte-identical state (restart
// determinism depends on it). The published snapshot is also the chain the
// next delta cut extends. Entries rebuilt from a snapshot carry
// executor.Inline: those executions are part of the snapshot, so nothing
// needs ordering behind them.
func (r *Replica) restoreFromSnapshot(snap *Snapshot) error {
	t, err := wire.DecodeTopology(snap.Topo)
	if err != nil {
		return fmt.Errorf("core: decode snapshot topology: %w", err)
	}
	if err := r.cutter.RestoreChunks(snap.gens()); err != nil {
		return fmt.Errorf("core: restore service from snapshot chain: %w", err)
	}
	if err := r.replyCache.Restore(snapshot.JoinChunks(snap.rc())); err != nil {
		return fmt.Errorf("core: restore reply cache from snapshot: %w", err)
	}
	r.execSeq = make(map[uint64]schedEntry)
	for client, seq := range r.replyCache.LastSeqs() {
		r.execSeq[client] = schedEntry{seq: seq, worker: executor.Inline}
	}
	r.snapshots.put(snap)
	// Only advance smTopo: a snapshot never carries an epoch older than the
	// config commands already applied (installs only move the state
	// forward), but a same-epoch stamp must not overwrite it — the first
	// topology installed for an epoch is the epoch's truth. Adopting is a
	// no-op unless the snapshot crosses a reconfiguration point this
	// replica has not applied.
	if t.Epoch > r.smTopo.Epoch {
		r.smTopo = t
	}
	r.adoptTopology(t, "snapshot")
	return nil
}
