package core

import (
	"time"

	"gosmr/internal/paxos"
	"gosmr/internal/profiling"
	"gosmr/internal/retrans"
	"gosmr/internal/wal"
	"gosmr/internal/wire"
)

// protoState is the Protocol thread's private bookkeeping: retransmission
// handles and — when the group's WAL runs under group commit — the durable
// gate holding effects whose WAL records have not been fsynced yet.
type protoState struct {
	handles map[paxos.RetransKey]*retrans.Handle
	// gate is a FIFO of effect batches parked until the WAL's durable
	// watermark reaches their lsn. Owned exclusively by the Protocol
	// thread; the WAL Syncer only nudges the thread with evDurable.
	gate []gatedEffects
	// toldUpTo is the watermark of the last drain beat (see runProtocol).
	toldUpTo wire.InstanceID
	// topoEpoch is the topology epoch this group has installed (journaled
	// and handed to its node); the thread polls Replica.pendingTopo against
	// it at the top of every loop iteration.
	topoEpoch int64
}

// gatedSend is one peer-bound message awaiting durability.
type gatedSend struct {
	to  int // peer ID or paxos.Broadcast
	msg wire.Message
	key *paxos.RetransKey
}

// gatedEffects is the output of one protocol event, parked until the WAL is
// durable up to lsn.
type gatedEffects struct {
	lsn   int64
	sends []gatedSend
	items []decisionItem // snapshot installs and decisions, in order
}

// runProtocol is one ordering group's Protocol thread (Sec. V-C2): a single
// event loop with exclusive write access to the group's replicated log and
// all its protocol state. It consumes the group's DispatcherQueue (peer
// messages, suspicions, proposal hints, housekeeping), drives the group's
// paxos.Node pure state machine, and applies its effects: enqueue sends
// (never blocking on sockets), register/cancel retransmissions, push the
// group's decisions toward the merge stage, and maintain the lock-free
// view/leader/watermark hints that other modules read.
//
// With a WAL under group commit, every effect whose event journaled new
// records is parked in the durable gate and released once the Syncer's
// fsync covers it. This is what makes a kill -9 safe: no promise, accepted
// value, or decision leaves this replica — as a message or as an executed
// request — before it is on disk. The Protocol thread itself never waits
// for the disk; it parks the output and moves to the next event.
func (r *Replica) runProtocol(g *ordGroup, node *paxos.Node) {
	defer r.wg.Done()
	th := r.profThread(gname("Protocol", g.idx))
	th.Transition(profiling.StateBusy)
	defer th.Transition(profiling.StateOther)

	ps := &protoState{
		handles:   make(map[paxos.RetransKey]*retrans.Handle),
		topoEpoch: r.topo.Load().Epoch,
	}

	apply := func(e paxos.Effects) { r.applyEffects(th, g, node, ps, e) }

	apply(node.Start())
	r.refreshHints(g, node)

	for {
		ev, err := g.dispatchQ.Take(th)
		if err != nil {
			return
		}
		// Install a newly adopted topology before processing the event: the
		// stop-the-group handoff. Journal it (so a checkpointed WAL still
		// remembers the epoch), hand it to the node, and advance to the
		// epoch's base view — the Phase 1 re-run over the unstable suffix
		// under the new shape is what carries the old epoch's in-flight
		// proposals across.
		if t := r.pendingTopo.Load(); t != nil && t.Epoch > ps.topoEpoch {
			ps.topoEpoch = t.Epoch
			if g.wal != nil {
				g.wal.Append(wal.Record{Type: wal.RecTopo, Value: wire.EncodeTopology(t)})
			}
			crashPoint("reconfig-journal")
			node.SetTopology(t)
			apply(node.AdvanceTo(t.BaseView))
			r.refreshHints(g, node)
		}
		switch ev.kind {
		case evPeerMsg:
			// Honor the local lease promise in EVERY group: a Prepare from
			// anyone but the promised leader is deferred until the promise
			// expires (a sibling-group election completing early could
			// commit writes the leaseholder's local reads would miss). The
			// event is re-injected whole; a drop on a full queue is safe —
			// the candidate retransmits its Prepare.
			if _, isPrep := ev.msg.(*wire.Prepare); isPrep {
				if d := r.leases.holdPrepare(ev.from, time.Now()); d > 0 {
					rev := ev
					time.AfterFunc(d, func() { _, _ = g.dispatchQ.TryPut(rev) })
					continue
				}
			}
			apply(node.HandleMessage(ev.from, ev.msg))
			// The reader Retained the message before dispatch, so the state
			// machine kept only owned memory (log values, snapshot bytes);
			// the struct itself is dead now and goes back to its pool.
			wire.Release(ev.msg)
		case evSuspect:
			// The shared failure detector suspects the leader of group 0's
			// view ev.view. Each group maps the suspicion onto its own view:
			// group 0 requires an exact view match (the original semantics);
			// sibling groups act iff their current leader is the suspected
			// replica, so a group whose view drifted still rotates away from
			// a dead leader.
			if g.idx == 0 {
				apply(node.OnSuspect(ev.view))
			} else if r.topo.Load().Leader(ev.view) == node.Leader() {
				apply(node.OnSuspect(node.View()))
			}
		case evProposalReady:
			// Handled by the drain below.
		case evCatchUpTimer:
			apply(node.CatchUpTimeout(ev.gen))
		case evTruncate:
			node.TruncateLog(ev.upTo)
			if g.wal != nil {
				// The snapshot covering the truncated prefix is durable
				// (the ServiceManager persists it before asking for the
				// cut), so compact the WAL: one checkpoint segment holding
				// the retained live state replaces everything older. The
				// current view leads the dump — the promise lived in
				// RecView records of the discarded segments, and an
				// acceptor that forgot its promise across a restart could
				// double-promise an older ballot. The one deliberate disk
				// access on this thread; snapshots are rare.
				states := []wal.Record{{Type: wal.RecView, View: node.View()}}
				if t := node.Topology(); t != nil {
					// The RecTopo records of the discarded segments carried
					// the epoch; re-dump it so a restart from this checkpoint
					// still boots in the right topology.
					states = append(states, wal.Record{Type: wal.RecTopo, Value: wire.EncodeTopology(t)})
				}
				states = append(states, suffixStates(node.Log())...)
				if err := g.wal.Checkpoint(node.Log().Base(), states); err != nil {
					// Degrade: the old segments stay, replay still works, and
					// the next snapshot cut retries the compaction. ENOSPC
					// additionally sheds catch-up retention — the likeliest
					// reason the checkpoint dump had no room.
					r.snapshotFailure("wal checkpoint", node.Log().Base(), err)
					r.maybeShrinkWAL(err)
				}
			}
		case evFastForward:
			// A transferred snapshot covering this group's log below ev.upTo
			// is durably on disk (the ServiceManager persisted it before
			// sending this event), so the cut this journals can never outrun
			// its snapshot. Decisions already applied above the cut are
			// emitted by FastForward itself.
			apply(node.FastForward(ev.upTo))
			if ev.snap != nil {
				// Install ack: echo the installed marker into this group's
				// decision stream, behind the cut and any decisions this
				// event released, so the Merger jumps its position in order.
				if !r.emitItem(th, g, ps, decisionItem{snapshot: ev.snap, installed: true}) {
					return
				}
			}
		case evDurable:
			// The WAL Syncer advanced the durable watermark; the release
			// check below the switch does the work.
		}
		// Sibling groups keep their view epoch converged on group 0's (the
		// view the shared failure detector tracks). Suspicion fan-out is
		// best-effort (TryPut), so a group can miss one; this check makes
		// recovery self-healing: any event — a peer message, an alignment
		// nudge, a redirect wake-up from ClientIO — re-synchronizes the
		// view, and if this replica leads the new view it starts Phase 1
		// for this group too.
		if g.idx != 0 {
			if v0 := wire.View(r.groups[0].viewHint.Load()); v0 > node.View() {
				apply(node.AdvanceTo(v0))
			}
		}
		// Start new ballots whenever leadership and the window allow: a
		// decision that just freed a slot, or a fresh batch, both land here.
		// The merge-backlog gate bounds how far this group's decided slots
		// may run ahead of what the merge stage has consumed: while a
		// sibling group stalls (lossy link, dead sub-leader), the Merger
		// must buffer this group's decisions, so without the gate a busy
		// group would grow that buffer without bound. Closing the gate
		// throttles only new proposals — the ProposalQueue fills, the
		// Batcher stalls, backpressure reaches the clients (Sec. V-E) —
		// while event processing continues, so the stalled sibling still
		// recovers and reopens the gate.
		backlogCap := int64(4*r.cfg.Window + 256)
		for node.WindowOpen() &&
			int64(node.DecidedUpTo())-g.mergedUpTo.Load() < backlogCap {
			value, ok := g.proposalQ.TryTake()
			if !ok {
				break
			}
			e, accepted := node.ProposeBatch(value)
			if !accepted {
				break
			}
			apply(e)
		}
		r.alignGroup(g, node, apply)
		if !r.releaseDurable(th, g, ps) {
			return
		}
		// Followers learn a decision from the next Propose or heartbeat, and
		// the shared failure detector beats only for group 0's leader. A group
		// led apart from it (views drifted) therefore tells its followers
		// itself when its pipeline drains; otherwise its last decision would
		// hold every other replica's merge until traffic resumed.
		if d := node.DecidedUpTo(); d > ps.toldUpTo && node.InFlight() == 0 &&
			node.IsLeader() && !r.groups[0].isLeader.Load() {
			ps.toldUpTo = d
			r.broadcast(wrapGroup(g.idx, &wire.Heartbeat{View: node.View(), DecidedUpTo: d}))
		}
	}
}

// applyEffects executes one Effects value from a group's protocol state
// machine. Peer-bound messages are tagged with the group (group 0 stays
// unwrapped), and decisions flow into the MergeQueue for the merge stage.
// Under group commit the sends and decisions are parked in the durable gate
// instead, until the WAL covers the records this event journaled.
func (r *Replica) applyEffects(th *profiling.Thread, g *ordGroup, node *paxos.Node,
	ps *protoState, e paxos.Effects) {

	// Publish the watermark before any decision of this event can reach the
	// MergeQueue (directly, or later through the durable gate): once it is
	// there it can be executed and acknowledged, and readFrontier() must
	// never answer a read-index query with less than an acknowledged write.
	g.decidedUpTo.Store(int64(node.DecidedUpTo()))

	if g.wal != nil && g.wal.Failed() != nil {
		// Fail-stop: the WAL hit a write/fsync fault, so records this event
		// journaled may not be on disk. Emit nothing — under SyncBatch the
		// durable gate would hold the output anyway (the watermark is frozen),
		// but SyncAlways has no gate, and a reply acknowledging an
		// un-journaled accept is exactly the loss fail-stop exists to prevent.
		// The OnFault callback is already tearing the replica down.
		return
	}

	// Cancels first: the lock-free flag flip of Sec. V-C4. A cancelled
	// message still parked in the durable gate must not be sent at release
	// (nothing would ever cancel its retransmission), so the gate is
	// scrubbed too.
	for _, k := range e.CancelRetrans {
		if h, ok := ps.handles[k]; ok {
			h.Cancel()
			delete(ps.handles, k)
		}
		for gi := range ps.gate {
			sends := ps.gate[gi].sends[:0]
			for _, s := range ps.gate[gi].sends {
				if s.key == nil || *s.key != k {
					sends = append(sends, s)
				}
			}
			ps.gate[gi].sends = sends
		}
	}

	if e.ViewChanged {
		// Journal the promise before any output of this event computes its
		// gate position: the new view must be durable before a PrepareOK or
		// Accept sent under it reaches a peer.
		if g.wal != nil {
			g.wal.Append(wal.Record{Type: wal.RecView, View: node.View()})
		}
		r.refreshHints(g, node)
		if g.idx == 0 {
			r.detector.UpdateView(node.View())
		}
	}

	if g.gated {
		sends := make([]gatedSend, 0, len(e.Sends))
		for _, s := range e.Sends {
			sends = append(sends, gatedSend{to: s.To, msg: wrapGroup(g.idx, s.Msg), key: s.Retrans})
		}
		var items []decisionItem
		// Snapshot install must precede the decisions that follow it.
		if e.InstallSnapshot != nil {
			items = append(items, decisionItem{meta: e.InstallSnapshot})
		}
		for _, d := range e.Decisions {
			items = append(items, decisionItem{id: d.ID, value: d.Value})
		}
		lsn := g.wal.AppendedLSN()
		if len(ps.gate) > 0 || g.wal.DurableLSN() < lsn {
			// Park. FIFO order through the gate preserves the per-group
			// decision order the merge stage depends on.
			ps.gate = append(ps.gate, gatedEffects{lsn: lsn, sends: sends, items: items})
		} else if !r.emitEffects(th, g, ps, sends, items) {
			return
		}
	} else {
		// Direct path (no gating — the default in-memory replica and the
		// always/none policies): no intermediate slices on the hot path.
		for _, s := range e.Sends {
			r.sendOne(g, ps, s.To, wrapGroup(g.idx, s.Msg), s.Retrans)
		}
		if e.InstallSnapshot != nil {
			if err := r.mergeQ.Put(th, groupDecision{group: g.idx,
				item: decisionItem{meta: e.InstallSnapshot}}); err != nil {
				return
			}
		}
		for _, d := range e.Decisions {
			if err := r.mergeQ.Put(th, groupDecision{group: g.idx,
				item: decisionItem{id: d.ID, value: d.Value}}); err != nil {
				return
			}
		}
	}

	if e.Lease != nil {
		// A heartbeat-carried lease grant from the current leader. Promise
		// bookkeeping only — no acceptor state — so the ack goes out
		// ungated (LeaseAck is group-agnostic and stays unwrapped).
		if ack := r.leases.onGrant(e.Lease.From, e.Lease.View, e.Lease.DurationMS, e.Lease.Seq); ack != nil {
			r.enqueueSend(e.Lease.From, ack)
		}
	}

	if e.CatchUp != nil {
		// Catch-up queries carry no acceptor state; they go out ungated.
		leader := node.Leader()
		if leader != r.cfg.ID {
			r.enqueueSend(leader, wrapGroup(g.idx, e.CatchUp))
		}
		// Re-arm: if the response never comes, the state machine re-issues.
		// The timer carries the query's generation so a timeout that lost
		// the race with the response is a no-op instead of a duplicate query.
		gen := e.CatchUpGen
		timeout := r.cfg.CatchUpTimeout
		time.AfterFunc(timeout, func() {
			_, _ = g.dispatchQ.TryPut(event{kind: evCatchUpTimer, gen: gen})
		})
	}
}

// emitItem pushes one decision-stream item toward the merge stage, through
// the durable gate when the group is gated (FIFO with everything already
// parked, so stream order is preserved). Returns false on shutdown.
func (r *Replica) emitItem(th *profiling.Thread, g *ordGroup, ps *protoState, item decisionItem) bool {
	if g.gated {
		lsn := g.wal.AppendedLSN()
		if len(ps.gate) > 0 || g.wal.DurableLSN() < lsn {
			ps.gate = append(ps.gate, gatedEffects{lsn: lsn, items: []decisionItem{item}})
			return true
		}
	}
	return r.emitEffects(th, g, ps, nil, []decisionItem{item})
}

// sendOne transmits a (group-wrapped) message and registers its
// retransmission when key is non-nil.
func (r *Replica) sendOne(g *ordGroup, ps *protoState, to int, msg wire.Message, key *paxos.RetransKey) {
	send := func() {
		if to == paxos.Broadcast {
			r.broadcast(msg)
		} else {
			r.enqueueSend(to, msg)
		}
	}
	send()
	if key != nil {
		if old, ok := ps.handles[*key]; ok {
			old.Cancel()
		}
		ps.handles[*key] = g.retr.Add(send)
	}
}

// emitEffects transmits sends (registering retransmissions) and pushes
// items to the merge stage. Returns false when the replica is shutting down
// (MergeQueue closed).
func (r *Replica) emitEffects(th *profiling.Thread, g *ordGroup, ps *protoState,
	sends []gatedSend, items []decisionItem) bool {

	for _, s := range sends {
		r.sendOne(g, ps, s.to, s.msg, s.key)
	}
	for _, it := range items {
		if err := r.mergeQ.Put(th, groupDecision{group: g.idx, item: it}); err != nil {
			return false
		}
	}
	return true
}

// releaseDurable emits every gated effect batch the WAL's durable watermark
// has reached, in park order. Returns false on shutdown.
func (r *Replica) releaseDurable(th *profiling.Thread, g *ordGroup, ps *protoState) bool {
	if len(ps.gate) == 0 {
		return true
	}
	durable := g.wal.DurableLSN()
	n := 0
	for _, ge := range ps.gate {
		if ge.lsn > durable {
			break
		}
		n++
	}
	if n == 0 {
		return true
	}
	released := ps.gate[:n]
	ps.gate = append([]gatedEffects(nil), ps.gate[n:]...)
	for _, ge := range released {
		if !r.emitEffects(th, g, ps, ge.sends, ge.items) {
			return false
		}
	}
	return true
}

// refreshHints publishes the group's view/leader/leadership hints read
// lock-free by ClientIO (redirects) and — for group 0 — the failure detector
// (heartbeats).
func (r *Replica) refreshHints(g *ordGroup, node *paxos.Node) {
	g.viewHint.Store(int32(node.View()))
	g.leaderHint.Store(int32(node.Leader()))
	g.isLeader.Store(node.IsLeader())
	g.readBarrier.Store(int64(node.ReadBarrier()))
	// Ordering note (lease safety): applyEffects calls this BEFORE emitting
	// any send of the same event, so when this replica abandons leadership
	// by adopting a higher view, its lease reads go invalid before the
	// PrepareOK helping the new leader can leave the building.
}
