package core

import (
	"errors"
	"fmt"
	"log"
	"time"

	"gosmr/internal/queue"
	"gosmr/internal/wire"
)

// Dynamic membership (reconfiguration through the log).
//
// The cluster shape is an epoch-stamped wire.Topology; epoch 0 is the one
// the cluster booted with. Every reconfiguration commits exactly one
// membership change (add or remove a single replica) as a distinguished
// config command ordered like any other batch, bumping the epoch by one.
// Because adjacent epochs differ by one replica, any quorum of epoch E and
// any quorum of epoch E+1 intersect — and since every peer frame carries its
// sender's epoch and mismatched frames are dropped symmetrically, a quorum
// can only ever form entirely inside one epoch. The handoff itself is
// stop-the-group: the new topology names a BaseView above every view the old
// epoch used, and every ordering group re-runs Phase 1 at that view under
// the new shape, adopting the old epoch's unstable suffix exactly like any
// leader change (the Phase 1 value-adoption rule is the safety argument; the
// epoch fence only bounds WHO may vote).
//
// Replica IDs are never reused: an added replica takes a fresh ID
// (len(Peers)), a removed one leaves a permanent "" hole. That keeps every
// array indexed by replica ID (queues, links, lease tables, fd timestamps)
// append-only.

// seedTopology builds the boot topology from the static configuration.
// Callers pass a cfg that already went through withDefaults.
func seedTopology(cfg Config) *wire.Topology {
	t := &wire.Topology{
		Epoch:    cfg.TopologyEpoch,
		BaseView: wire.View(cfg.TopologyBaseView),
		Groups:   int32(cfg.Groups),
		Peers:    append([]string(nil), cfg.PeerAddrs...),
	}
	if len(cfg.PeerClientAddrs) > 0 {
		t.Clients = append([]string(nil), cfg.PeerClientAddrs...)
	}
	return t
}

// Topology returns a copy of the current committed cluster topology.
func (r *Replica) Topology() *wire.Topology { return r.topo.Load().Clone() }

// Epoch returns the current committed topology epoch.
func (r *Replica) Epoch() int64 { return r.topo.Load().Epoch }

// AddReplica proposes a single-step reconfiguration appending one replica
// (fresh ID = current len(Peers)) with the given peer-facing and
// client-facing addresses. It blocks until the config command commits and
// takes effect locally, returning the committed topology — the joiner must
// be booted with exactly this topology as its seed (the command commits
// FIRST, under the old quorum; the joiner then catches up via the normal
// snapshot-transfer/WAL path). Must be called on the group-0 leader.
func (r *Replica) AddReplica(peerAddr, clientAddr string) (*wire.Topology, error) {
	return r.proposeReconfig(-1, peerAddr, clientAddr)
}

// RemoveReplica proposes a single-step reconfiguration removing replica id
// (its slot becomes a permanent hole; the ID is never reused). It blocks
// until the config command commits and takes effect locally. Must be called
// on the group-0 leader; the leader cannot remove itself.
func (r *Replica) RemoveReplica(id int) (*wire.Topology, error) {
	return r.proposeReconfig(id, "", "")
}

// reconfigTimeout bounds how long a proposer waits for its config command to
// commit and apply before reporting failure (the command may still commit
// later; retries are idempotent because stale epochs are skipped on apply).
const reconfigTimeout = 10 * time.Second

// ErrReconfigConflict reports that a proposal's epoch slot was won by a
// concurrent reconfiguration carrying a different change: the epoch advanced,
// but the committed topology does not reflect the requested add/remove.
// Re-propose against the new topology (Replica.Topology shows what committed).
var ErrReconfigConflict = errors.New("core: reconfiguration lost to a concurrent proposal")

func (r *Replica) proposeReconfig(remove int, peerAddr, clientAddr string) (*wire.Topology, error) {
	// One proposal at a time: two concurrent callers would both read the
	// same current epoch and commit two config commands claiming the same
	// E+1 slot. The apply side skips the loser deterministically (see
	// applyReconfig), but serializing here means a local racer re-reads the
	// winner's committed topology instead of burning an epoch on a doomed
	// command.
	r.reconfigMu.Lock()
	defer r.reconfigMu.Unlock()
	// A previous reconfiguration's Phase-1 handoff may still be in flight:
	// isLeader drops until the group re-elects at the new BaseView, while the
	// hint still names this replica. Give that window a moment rather than
	// bounce a serialized back-to-back proposal with a redirect to itself; a
	// hint naming another replica is a real deposal and fails fast.
	for grace := time.Now().Add(2 * time.Second); !r.groups[0].isLeader.Load(); {
		if int(r.groups[0].leaderHint.Load()) != r.cfg.ID || time.Now().After(grace) {
			return nil, fmt.Errorf("core: replica %d does not lead group 0 (leader hint: %d)",
				r.cfg.ID, r.groups[0].leaderHint.Load())
		}
		select {
		case <-r.stop:
			return nil, fmt.Errorf("core: replica shutting down")
		case <-time.After(2 * time.Millisecond):
		}
	}
	cur := r.topo.Load()
	next := cur.Clone()
	next.Epoch = cur.Epoch + 1
	if remove < 0 {
		if peerAddr == "" {
			return nil, fmt.Errorf("core: AddReplica needs a peer address")
		}
		next.Peers = append(next.Peers, peerAddr)
		for len(next.Clients) < len(next.Peers)-1 {
			next.Clients = append(next.Clients, "")
		}
		next.Clients = append(next.Clients, clientAddr)
	} else {
		if remove == r.cfg.ID {
			return nil, fmt.Errorf("core: replica %d cannot remove itself; remove it from a surviving leader", remove)
		}
		if !cur.Active(remove) {
			return nil, fmt.Errorf("core: replica %d is not an active member", remove)
		}
		if cur.N() <= 2 {
			return nil, fmt.Errorf("core: refusing to shrink a %d-replica cluster further", cur.N())
		}
		next.Peers[remove] = ""
		if remove < len(next.Clients) {
			next.Clients[remove] = ""
		}
	}
	// BaseView: strictly above every view any group currently uses, and led
	// by this replica under the NEW map — so the proposer that committed the
	// command also drives the Phase-1 handoff, and views the old epoch's
	// leader map already assigned are never reinterpreted.
	maxV := int64(0)
	for _, g := range r.groups {
		if v := int64(g.viewHint.Load()); v > maxV {
			maxV = v
		}
	}
	b := wire.View(maxV + 1)
	for next.Leader(b) != r.cfg.ID {
		b++
	}
	next.BaseView = b
	if err := next.Validate(); err != nil {
		return nil, fmt.Errorf("core: proposed topology invalid: %w", err)
	}

	// Order the change like any command: a one-request batch under the
	// reserved config client ID, injected on group 0's proposal path (the
	// same queue batches and merge pads ride).
	req := &wire.ClientRequest{
		ClientID: wire.ConfigClientID,
		Seq:      uint64(next.Epoch),
		Payload:  wire.EncodeTopology(next),
	}
	enc := wire.EncodeBatch([]*wire.ClientRequest{req})
	if err := r.groups[0].proposalQ.Put(nil, enc); err != nil {
		return nil, fmt.Errorf("core: replica shutting down")
	}
	crashPoint("reconfig-proposed")
	_, _ = r.groups[0].dispatchQ.TryPut(event{kind: evProposalReady})

	deadline := time.Now().Add(reconfigTimeout)
	for {
		if t := r.topo.Load(); t.Epoch >= next.Epoch {
			// Epoch numbers are totally ordered by the log, so whatever
			// topology got committed at (or past) this epoch is the truth.
			// It is NOT necessarily OUR truth: a concurrent proposal (e.g.
			// from a deposed leader) may have won the slot with a different
			// change, in which case our command was skipped on apply —
			// succeeding here would hand the operator a topology that does
			// not contain the joiner (or still contains the removee).
			if err := reconfigOutcome(t, remove, peerAddr, clientAddr); err != nil {
				return nil, err
			}
			return t.Clone(), nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("core: reconfiguration to epoch %d did not commit within %v", next.Epoch, reconfigTimeout)
		}
		select {
		case <-r.stop:
			return nil, fmt.Errorf("core: replica shutting down")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// reconfigOutcome checks whether the committed topology t reflects the
// requested change: the removed id is gone, or the added peer address is
// present (with its client address, when one was given). A mismatch means a
// concurrent proposal won the epoch slot and ours was skipped on apply.
func reconfigOutcome(t *wire.Topology, remove int, peerAddr, clientAddr string) error {
	if remove >= 0 {
		if t.Active(remove) {
			return fmt.Errorf("%w: replica %d is still active in committed epoch %d",
				ErrReconfigConflict, remove, t.Epoch)
		}
		return nil
	}
	for i, p := range t.Peers {
		if p == peerAddr && (clientAddr == "" || (i < len(t.Clients) && t.Clients[i] == clientAddr)) {
			return nil
		}
	}
	return fmt.Errorf("%w: committed epoch %d does not contain peer %s",
		ErrReconfigConflict, t.Epoch, peerAddr)
}

// applyReconfig is the ServiceManager's handler for an ordered config
// command (a one-request batch under wire.ConfigClientID): decode the
// topology it carries and adopt it. Runs at a deterministic merged index on
// every replica — the reconfiguration point.
func (r *Replica) applyReconfig(payload []byte) {
	t, err := wire.DecodeTopology(payload)
	if err != nil {
		log.Printf("gosmr: replica %d: malformed config command skipped: %v", r.cfg.ID, err)
		return
	}
	crashPoint("reconfig-decided")
	// Epoch fence on the ServiceManager's own topology, mirroring
	// adoptTopology's: two config commands claiming the same epoch can both
	// commit (racing proposers read the same current epoch), and the FIRST
	// one in merged order is the epoch's one true topology on every replica.
	// Installing the loser here would stamp a divergent same-epoch topology
	// into the next snapshot manifest — undetectable by the epoch fence, and
	// fatal to adjacent-epoch quorum intersection on a later state transfer.
	if r.smTopo != nil && t.Epoch <= r.smTopo.Epoch {
		log.Printf("gosmr: replica %d: config command for epoch %d skipped (ServiceManager already at epoch %d)",
			r.cfg.ID, t.Epoch, r.smTopo.Epoch)
		return
	}
	if int(t.Groups) != len(r.groups) {
		log.Printf("gosmr: replica %d: config command for epoch %d skipped: group count %d != configured %d",
			r.cfg.ID, t.Epoch, t.Groups, len(r.groups))
		return
	}
	r.smTopo = t
	r.adoptTopology(t, "log")
}

// adoptTopology installs a committed topology replica-wide: publish it for
// senders/readers to stamp and enforce, reshape the per-peer send queues and
// links, hand it to the protocol threads (which journal it and re-run Phase 1
// at its BaseView — see runProtocol), resize the failure detector and lease
// tables, and push it to connected clients. Stale epochs are ignored, so the
// call is idempotent across every source (log apply, peer TopoUpdate,
// snapshot restore). src names the source for the log line.
func (r *Replica) adoptTopology(t *wire.Topology, src string) {
	r.topoMu.Lock()
	cur := r.topo.Load()
	if t.Epoch <= cur.Epoch {
		r.topoMu.Unlock()
		return
	}
	if int(t.Groups) != len(r.groups) {
		// The group count is part of the topology but epoch-invariant: the
		// round-robin merge (merged index m -> group m%G) bakes G into every
		// merged index ever assigned, so reshaping it needs a restart, not a
		// config command. proposeReconfig never changes it; refuse anything
		// else rather than corrupt the merge.
		r.topoMu.Unlock()
		log.Printf("gosmr: replica %d: refusing topology epoch %d via %s: group count %d != configured %d",
			r.cfg.ID, t.Epoch, src, t.Groups, len(r.groups))
		return
	}
	t = t.Clone()
	r.topo.Store(t)
	r.pendingTopo.Store(t)
	r.reshapeSendQueues(t)

	// The side effects stay under topoMu: the epoch check above is the only
	// staleness fence, and none of the receivers checks epochs itself. If
	// the lock were dropped first, two racing adoptions (log apply of E+1 vs
	// a peer TopoUpdate carrying E+2) could interleave so the OLDER epoch's
	// calls land last, leaving the failure detector and lease manager on a
	// stale membership — ackQuorumValid would then size lease quorums
	// against the wrong active set. Every call below is non-blocking
	// (TryPut, atomic pointer swaps, short internal critical sections), and
	// none of their locks is ever held while acquiring topoMu, so holding it
	// across them is cheap and deadlock-free.
	//
	// Nudge every Protocol thread: each picks pendingTopo up at the top of
	// its event loop (journaling it and advancing to BaseView).
	for _, g := range r.groups {
		_, _ = g.dispatchQ.TryPut(event{kind: evProposalReady})
	}
	if r.detector != nil {
		r.detector.SetTopology(t)
	}
	r.leases.setTopology(t)
	if r.peerIO != nil {
		r.peerIO.applyTopology(t)
	}
	if r.clientIO != nil {
		r.clientIO.broadcastTopology(t)
	}
	removed := !t.Active(r.cfg.ID)
	r.topoMu.Unlock()

	log.Printf("gosmr: replica %d: adopted topology epoch %d (n=%d, base view %d, via %s)",
		r.cfg.ID, t.Epoch, t.N(), t.BaseView, src)

	if removed {
		// Permanently removed: this replica is no longer a member. Fire the
		// operator hook and shut down (Stop must not run on this thread —
		// it joins the module the caller may be running on).
		r.fireFaulted(fmt.Sprintf("removed from the cluster at epoch %d", t.Epoch))
		go r.Stop()
	}
	crashPoint("reconfig-applied")
}

// reshapeSendQueues swaps in a copy-on-write send-queue slice sized to t:
// queues for added replicas are created, queues for removed ones are closed
// (terminating their sender goroutines). Callers hold topoMu.
func (r *Replica) reshapeSendQueues(t *wire.Topology) {
	old := *r.sendQs.Load()
	qs := make([]*queue.Bounded[sendItem], len(t.Peers))
	copy(qs, old)
	for p := range qs {
		if p == r.cfg.ID {
			qs[p] = nil
			continue
		}
		if !t.Active(p) {
			if qs[p] != nil {
				// Farewell: the removed replica may not have executed the
				// config command itself (it could be lagging), so tell it
				// directly. Close drains remaining items through the sender,
				// and peerIO keeps the link up briefly for the write.
				_, _ = qs[p].TryPut(sendItem{msg: &wire.TopoUpdate{Topo: *t}})
				qs[p].Close()
				qs[p] = nil
			}
			continue
		}
		if qs[p] == nil {
			qs[p] = queue.NewBounded[sendItem](fmt.Sprintf("SendQueue-%d", p), sendQueueCap)
		}
	}
	r.sendQs.Store(&qs)
}

// sendQueue returns peer p's SendQueue under the current topology (nil for
// self, removed peers, and out-of-range IDs). Lock-free.
func (r *Replica) sendQueue(p int) *queue.Bounded[sendItem] {
	qs := *r.sendQs.Load()
	if p < 0 || p >= len(qs) {
		return nil
	}
	return qs[p]
}

// fireFaulted invokes Config.OnFaulted at most once, on its own goroutine.
func (r *Replica) fireFaulted(reason string) {
	r.faultCB.Do(func() {
		if r.cfg.OnFaulted != nil {
			go r.cfg.OnFaulted(reason)
		}
	})
}
