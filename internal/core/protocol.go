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
// gate holding votes whose WAL records have not been fsynced yet.
type protoState struct {
	handles map[paxos.RetransKey]*retrans.Handle
	// gate is a FIFO of votes parked until the WAL's durable watermark
	// reaches their lsn; gate[:gateHead] is already released and the backing
	// array is reused. Owned exclusively by the Protocol thread; the WAL
	// Syncer only nudges the thread with evDurable.
	gate     []gatedVote
	gateHead int
	// toldUpTo is the watermark of the last drain beat (see runProtocol).
	toldUpTo wire.InstanceID
	// topoEpoch is the topology epoch this group has installed (journaled
	// and handed to its node); the thread polls Replica.pendingTopo against
	// it at the top of every loop iteration.
	topoEpoch int64
}

// gatedVote is one message that speaks for this replica's acceptor
// (paxos.SendEffect.Vote), parked until the WAL is durable up to lsn.
type gatedVote struct {
	lsn int64
	to  int          // peer ID, paxos.Broadcast, or this replica: the leader's vote for its own proposal
	msg wire.Message // not yet group-wrapped; nil once cancelled while parked
	key *paxos.RetransKey
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
// With a WAL under group commit one rule makes a kill -9 safe: a vote or a
// promise leaves its acceptor only when it is on disk. The node marks such a
// message (paxos.SendEffect.Vote) and the durable gate parks it until the
// Syncer's fsync covers it — including the leader's vote for its own
// proposal, which re-enters the node from the gate like any peer's Accept.
// Proposals and decisions are never parked: a decision needs a majority of
// votes, each durable before it was cast, so it — and the watermark that
// announces it — is already a fact when this replica learns it. The Protocol
// thread itself never waits for the disk.
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
			apply(node.SetTopology(t))
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
				if t := node.Topology(); t.Epoch > 0 {
					// The RecTopo records of the discarded segments carried
					// the epoch; re-dump it so a restart from this checkpoint
					// still boots in the right topology. Epoch 0 journals
					// none, so its checkpoints dump none either.
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
				if err := r.mergeQ.Put(th, groupDecision{group: g.idx,
					item: decisionItem{snapshot: ev.snap, installed: true}}); err != nil {
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
		backlog := func() int64 { return int64(node.DecidedUpTo()) - g.mergedUpTo.Load() }
		for node.WindowOpen() && backlog() < backlogCap {
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
		// The pull rule: publish whether a batch handed over now would be
		// proposed at once, and if so ask for the open one. The Batcher cuts
		// on the hint instead of waiting out its delay beside an idle
		// pipeline; with the window full it keeps filling until this asks.
		pull := canPropose(node.IsLeader(), node.WindowOpen(), backlog(), backlogCap, g.proposalQ.Len())
		g.canPropose.Store(pull)
		if pull {
			r.cutOpenBatch(g)
		}
		if g.gated {
			r.releaseDurable(th, g, node, ps)
			g.gateLen.Store(int32(len(ps.gate) - ps.gateHead))
			g.selfVoteLag.Store(int32(node.SelfVotesPending()))
		}
		// Followers learn a decision from the next Propose or heartbeat. When
		// the pipeline drains there is no next Propose, so the leader says so
		// itself: one beat carrying the watermark, one hop after the last
		// decision exists — what a follower's merge (a group led apart from
		// group 0 gets no detector heartbeat at all) and its read-index reads
		// (parked until execution covers the leader's frontier) wait for.
		if d := node.DecidedUpTo(); d > ps.toldUpTo && node.InFlight() == 0 && node.IsLeader() {
			ps.toldUpTo = d
			r.broadcast(g.idx, &wire.Heartbeat{View: node.View(), DecidedUpTo: d})
		}
	}
}

// canPropose is the pull rule, the Protocol → Batcher counterpart of
// slotsToFill: a batch handed over now is proposed at once iff this replica
// leads, the window has a free slot, the merge-backlog gate is open and no
// earlier batch is queued ahead of it.
func canPropose(leader, windowOpen bool, backlog, backlogCap int64, queued int) bool {
	return leader && windowOpen && backlog < backlogCap && queued == 0
}

// applyEffects executes one Effects value from a group's protocol state
// machine. Peer-bound messages are queued with the group, and decisions flow
// into the MergeQueue for the merge stage.
// Under group commit the votes among the sends are parked in the durable
// gate until the WAL covers the records this event journaled.
func (r *Replica) applyEffects(th *profiling.Thread, g *ordGroup, node *paxos.Node,
	ps *protoState, e paxos.Effects) {

	// Publish the watermark before any decision of this event can reach the
	// MergeQueue: once it is there it can be executed and acknowledged, and
	// readFrontier() must never answer a read-index query with less than an
	// acknowledged write.
	g.decidedUpTo.Store(int64(node.DecidedUpTo()))

	if g.wal != nil && g.wal.Failed() != nil {
		// Fail-stop: the WAL hit a write/fsync fault, so records this event
		// journaled may not be on disk. Emit nothing: the gate would hold a
		// vote forever anyway (the watermark is frozen), but SyncAlways has
		// no gate, and a vote for an un-journaled accept is exactly the loss
		// fail-stop exists to prevent. The OnFault callback is already
		// tearing the replica down.
		return
	}

	// Cancels first: the lock-free flag flip of Sec. V-C4. Only a Prepare
	// parks with a retransmission key; one cancelled while still parked must
	// not be sent at release (nothing would ever cancel it again).
	for _, k := range e.CancelRetrans {
		if h, ok := ps.handles[k]; ok {
			h.Cancel()
			delete(ps.handles, k)
		}
		if k.Kind != paxos.RetransPrepare {
			continue
		}
		for i := ps.gateHead; i < len(ps.gate); i++ {
			if v := &ps.gate[i]; v.key != nil && *v.key == k {
				v.msg = nil
			}
		}
	}

	if e.ViewChanged {
		// Journal the promise before any vote of this event computes its
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

	lsn := int64(-1) // gate position of this event's votes, read on first use
	for _, s := range e.Sends {
		if g.gated && s.Vote {
			if lsn < 0 {
				lsn = g.wal.AppendedLSN()
			}
			// FIFO behind whatever is parked. The leader's own vote always
			// parks: it re-enters the node, which must happen after this
			// event's decisions are in the MergeQueue (stream order).
			if s.To == r.cfg.ID || ps.gateHead < len(ps.gate) || g.wal.DurableLSN() < lsn {
				ps.gate = append(ps.gate, gatedVote{lsn: lsn, to: s.To, msg: s.Msg, key: s.Retrans})
				continue
			}
		}
		r.sendOne(g, ps, s.To, s.Msg, s.Retrans)
		if g.gated && !s.Vote && s.Retrans != nil {
			// A Propose is on its way and its accept record is not on disk.
			crashPoint("propose-sent")
		}
	}
	// Snapshot install must precede the decisions that follow it.
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

	if e.Lease != nil {
		// A heartbeat-carried lease grant from the current leader. Promise
		// bookkeeping only — no acceptor state — so the ack goes out
		// ungated (LeaseAck is group-agnostic: group 0).
		if ack := r.leases.onGrant(e.Lease.From, e.Lease.View, e.Lease.DurationMS, e.Lease.Seq); ack != nil {
			r.enqueueSend(e.Lease.From, 0, ack)
		}
	}

	if e.CatchUp != nil {
		// Catch-up queries carry no acceptor state; they go out ungated.
		leader := node.Leader()
		if leader != r.cfg.ID {
			r.enqueueSend(leader, g.idx, e.CatchUp)
		}
		// Re-arm: if the response never comes, the state machine re-issues.
		// The timer carries the query's generation so a timeout that lost
		// the race with the response is a no-op instead of a duplicate query.
		gen := e.CatchUpGen
		time.AfterFunc(catchUpTimeout, func() {
			_, _ = g.dispatchQ.TryPut(event{kind: evCatchUpTimer, gen: gen})
		})
	}
}

// sendOne transmits one of g's messages and registers its retransmission
// when key is non-nil.
func (r *Replica) sendOne(g *ordGroup, ps *protoState, to int, msg wire.Message, key *paxos.RetransKey) {
	send := func() {
		if to == paxos.Broadcast {
			r.broadcast(g.idx, msg)
		} else {
			r.enqueueSend(to, g.idx, msg)
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

// releaseDurable lets every parked vote the WAL's durable watermark has
// reached leave, in park order: to its peer, or — the leader's own — back
// into the node, whose decision then takes the same path as any other.
func (r *Replica) releaseDurable(th *profiling.Thread, g *ordGroup, node *paxos.Node, ps *protoState) {
	if ps.gateHead == len(ps.gate) {
		return
	}
	durable := g.wal.DurableLSN()
	for ps.gateHead < len(ps.gate) && ps.gate[ps.gateHead].lsn <= durable {
		v := ps.gate[ps.gateHead]
		ps.gateHead++
		switch {
		case v.msg == nil: // cancelled while parked
		case v.to == r.cfg.ID:
			r.applyEffects(th, g, node, ps, node.HandleMessage(v.to, v.msg))
		default:
			r.sendOne(g, ps, v.to, v.msg, v.key)
		}
	}
	// Reuse the array: restart it when drained, slide the tail down once
	// the released prefix is the larger half (amortized O(1) per vote), and
	// drop the references of everything released or moved.
	if rest := len(ps.gate) - ps.gateHead; rest < ps.gateHead {
		copy(ps.gate, ps.gate[ps.gateHead:])
		clear(ps.gate[rest:])
		ps.gate, ps.gateHead = ps.gate[:rest], 0
	}
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
