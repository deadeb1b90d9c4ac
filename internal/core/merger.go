package core

import (
	"gosmr/internal/paxos"
	"gosmr/internal/profiling"
	"gosmr/internal/wire"
)

// The merge stage recombines the per-group decision streams into the single
// total order the ServiceManager consumes. The merged order is a fixed
// round-robin over decided instance slots: merged index m holds ordering
// group m % G, group-local slot m / G. Because every group's decision stream
// is itself deterministic (it is a replicated log), the merged sequence is a
// pure function of the per-group logs — identical on every replica no matter
// how the streams' deliveries interleave in time (see mergeState and its
// property test).
//
// Liveness across uneven groups — the row clock. Call "row s" the G merged
// slots holding every group's group-local slot s. Round-robin can only emit
// group g's slot s after every earlier group opened row s and every group
// opened row s-1, so a group with less traffic than its siblings must spend
// its slots at their pace or the merge stalls. One level-triggered rule,
// evaluated by each group's leader on its Protocol thread (alignGroup),
// does that: fill the log until `next` reaches
//
//	want = max(frontier - 1, mergeWant)
//
// where frontier is the highest `next` of any group (rows opened so far,
// Replica.maxSlot) and mergeWant is what the Merger demands the moment a
// sibling's decided slot is buffered behind a row this group has not opened.
// The first term keeps every group within one row of the busiest while that
// row's consensus round is still in flight; the second completes the last
// row once traffic stops (nothing else would ever open it). Neither term can
// open a new row, so rows/s is the fastest group's real batch rate — with
// frontier alone and no lag of one, every real batch anywhere would force
// G-1 fills and rows/s would be the sum of all groups' rates. A missing slot
// takes a ready batch, else the Batcher's open batch cut early (the slot must
// be spent anyway, so it carries whatever is already waiting in the Batcher),
// else an empty batch — the Mencius-style "skip", decided through consensus
// like any batch and therefore unstalling every replica's merge identically.
//
// Cost model: a busy group's decision waits in the merge at most one row
// period (until its own next batch advances the frontier) or one fill round
// trip (mergeWant), whichever comes first — independent of Window. A quiet
// group's batches are cut at the row rate, so its ops per batch fall toward
// its arrivals per row. A sibling whose leader is dead fills nothing; then
// the Protocol thread's merge-backlog gate (4*Window+256) is the bound.

// mergedDecision is one emitted slot of the merged total order.
type mergedDecision struct {
	id    wire.InstanceID // merged index
	value []byte          // encoded batch
}

// mergeState is the pure merge state machine: feed it per-group decision
// stream items in any arrival order and it emits the deterministic merged
// sequence. It is owned by the Merger goroutine; tests drive it directly.
type mergeState struct {
	groups int
	next   int64             // next merged index to emit
	expect []wire.InstanceID // next group-local slot to emit, per group
	// pending buffers decisions that arrived ahead of their merge turn,
	// keyed by group-local slot.
	pending []map[wire.InstanceID][]byte
}

// newMergeState returns an empty merge over `groups` streams.
func newMergeState(groups int) *mergeState {
	m := &mergeState{
		groups:  groups,
		expect:  make([]wire.InstanceID, groups),
		pending: make([]map[wire.InstanceID][]byte, groups),
	}
	for i := range m.pending {
		m.pending[i] = make(map[wire.InstanceID][]byte)
	}
	return m
}

// cursor returns the group the next merged slot belongs to.
func (m *mergeState) cursor() int { return int(m.next % int64(m.groups)) }

// feed accepts one decision from group g's stream and returns every merged
// slot it unlocks, in merged order. Stale slots (below the group's expected
// position, e.g. replayed after a snapshot install) are dropped.
func (m *mergeState) feed(g int, id wire.InstanceID, value []byte) []mergedDecision {
	if id >= m.expect[g] {
		m.pending[g][id] = value
	}
	return m.drain()
}

// drain emits every buffered decision the merge position has reached, in
// merged order. Called from feed, and directly after a snapshot jump —
// which may land the cursor on a slot that was already buffered.
func (m *mergeState) drain() []mergedDecision {
	var out []mergedDecision
	for {
		cur := m.cursor()
		v, ok := m.pending[cur][m.expect[cur]]
		if !ok {
			return out
		}
		delete(m.pending[cur], m.expect[cur])
		out = append(out, mergedDecision{id: wire.InstanceID(m.next), value: v})
		m.expect[cur]++
		m.next++
	}
}

// feedSnapshot jumps the merge past an installed snapshot (the boot
// snapshot, or phase 2 of a transferred-snapshot install — by the time it is
// called the snapshot is durably persisted and restored). If it advances the
// merge, every group's position jumps to its share of the covered prefix and
// true is returned. Snapshots at or behind the current merge position are
// stale (the local state already covers them) and are dropped.
func (m *mergeState) feedSnapshot(snap *wire.Snapshot) bool {
	if snap.GroupCount() != m.groups || int64(snap.LastIncluded) < m.next {
		return false
	}
	m.next = int64(snap.LastIncluded) + 1
	for g := range m.expect {
		m.expect[g] = wire.GroupCut(snap.LastIncluded, m.groups, g)
		for id := range m.pending[g] {
			if id < m.expect[g] {
				delete(m.pending[g], id)
			}
		}
	}
	return true
}

// mergeNeed returns how many slots group g must have opened before group h's
// slot s can be emitted: rows 0..s-1 entirely, and row s for the groups that
// precede h in it.
func mergeNeed(g, h int, s wire.InstanceID) int64 {
	if g < h {
		return int64(s) + 1
	}
	return int64(s)
}

// slotsToFill is the fill rule (see the file header): how many slots a group
// whose log stands at next must open now, given the proposal frontier and
// the Merger's demand. Only a leader with window room fills.
func slotsToFill(next, frontier, mergeWant int64, leader, windowOpen bool) int64 {
	if !leader || !windowOpen {
		return 0
	}
	return max(max(frontier-1, mergeWant)-next, 0)
}

// runMerger is the Merger thread: it drains the MergeQueue (all groups'
// decision streams), advances the deterministic merge, and feeds the merged
// total order into the DecisionQueue for the ServiceManager. With a single
// ordering group it degenerates to a pass-through. Blocking on a full
// DecisionQueue extends the flow-control chain across the merge stage.
func (r *Replica) runMerger() {
	defer r.wg.Done()
	th := r.profThread("Merger")
	th.Transition(profiling.StateBusy)
	defer th.Transition(profiling.StateOther)

	m := newMergeState(len(r.groups))
	// durableCut is the highest merged index the Merger has WITNESSED as
	// covered by a durably persisted snapshot: the boot snapshot, and every
	// installed marker (markers are only emitted after the ServiceManager's
	// persist). It bounds how far the lost-ack re-nudge below may ask a
	// group to journal a cut — a cut above it might not be covered on disk.
	durableCut := int64(-1)
	if r.bootSnap != nil {
		// Crash-restart recovery: the service was restored from this
		// snapshot before any module started, so merging resumes right
		// after its cut — the same position jump a live snapshot install
		// performs. Each group's Protocol thread re-emits its decided
		// suffix from the matching group-local position.
		m.feedSnapshot(r.bootSnap)
		durableCut = int64(r.bootSnap.LastIncluded)
		for g := range m.expect {
			r.groups[g].mergedUpTo.Store(int64(m.expect[g]))
		}
	}
	// emit delivers merged slots to the ServiceManager and publishes each
	// group's consumed position, which the Protocol threads' merge-backlog
	// gate reads to keep the pending buffers bounded.
	emit := func(ds []mergedDecision) bool {
		for _, d := range ds {
			if err := r.decisionQ.Put(th, decisionItem{id: d.id, value: d.value}); err != nil {
				return false
			}
		}
		if len(ds) > 0 {
			for _, g := range r.groups {
				g.mergedUpTo.Store(int64(m.expect[g.idx]))
			}
		}
		return true
	}
	for {
		gd, err := r.mergeQ.Take(th)
		if err != nil {
			return
		}

		if snap := gd.item.snapshot; snap != nil && gd.item.installed {
			// Phase 2: a group's installed marker — the ServiceManager
			// persisted and restored this snapshot, and the group
			// journaled its cut. Jump the merge position; duplicate
			// markers from the other groups are stale and drop here
			// (but still witness durability).
			durableCut = max(durableCut, int64(snap.LastIncluded))
			if !m.feedSnapshot(snap) {
				continue
			}
			// Idempotent nudge to every group: any whose install ack
			// was lost (TryPut under pressure) still fast-forwards.
			// Safe — the snapshot is durable, so journaling the cut
			// cannot outrun it.
			for _, g := range r.groups {
				cut := wire.GroupCut(snap.LastIncluded, len(r.groups), g.idx)
				_, _ = g.dispatchQ.TryPut(event{kind: evFastForward, upTo: cut})
				g.mergedUpTo.Store(int64(m.expect[g.idx]))
			}
			// The jump may have landed the cursor on an already-buffered
			// slot; emit everything reachable before blocking again.
			if !emit(m.drain()) {
				return
			}
			continue
		}
		if meta := gd.item.meta; meta != nil {
			// Phase 1: a catch-up snapshot advertised to a group. The merge
			// position does NOT move yet — the ServiceManager must pull the
			// chunked image and persist it first (a pull or persist failure
			// simply means catch-up retries and no state changed anywhere).
			// Forward the announcement downstream; duplicates of an
			// in-flight install are deduplicated by the ServiceManager
			// against its install floor.
			if meta.GroupCount() != len(r.groups) {
				continue
			}
			if int64(meta.LastIncluded) < m.next {
				// Stale: the merge already advanced past this cut. When a
				// WITNESSED durable snapshot covers it (the common cause: a
				// sibling's marker jumped the merge and this group's
				// fast-forward ack was TryPut-lost), re-nudge the
				// originating group — journaling a durably-covered cut is
				// safe, and the group's catch-up retries this until the
				// nudge lands. Without the durability witness (the merge
				// advanced by normal merging after the gap filled), just
				// drop: the group is not wedged, and an unbacked cut could
				// strand a crash with a journal ahead of every snapshot on
				// disk.
				if int64(meta.LastIncluded) <= durableCut {
					cut := wire.GroupCut(meta.LastIncluded, len(r.groups), gd.group)
					_, _ = r.groups[gd.group].dispatchQ.TryPut(event{kind: evFastForward, upTo: cut})
				}
				continue
			}
			if err := r.decisionQ.Put(th, decisionItem{meta: meta}); err != nil {
				return
			}
			continue
		}

		if !emit(m.feed(gd.group, gd.item.id, gd.item.value)) {
			return
		}
		if gd.item.id >= m.expect[gd.group] {
			// Still buffered: a sibling has not decided — maybe not opened —
			// a row ahead of it. Raise those groups' demand and wake the ones
			// led here that have not opened it; the fill rule does the rest.
			for _, g := range r.groups {
				need := mergeNeed(g.idx, gd.group, gd.item.id)
				if g.idx == gd.group || need <= g.mergeWant.Load() {
					continue
				}
				g.mergeWant.Store(need)
				if g.isLeader.Load() && g.nextSlot.Load() < need {
					_, _ = g.dispatchQ.TryPut(event{kind: evProposalReady})
				}
			}
		}
	}
}

// alignGroup applies the fill rule of the file header to one group. Called by
// the group's Protocol thread after it drains its ProposalQueue on every
// event, so the rule is level-triggered: a lost nudge or a leadership change
// costs nothing but the wait for the next event. Followers publish the
// frontier too — a group's log advances as it accepts another replica's
// Proposes, and under split group leadership the local leader of a quiet
// group must still see the busy groups' rows to fill against them.
func (r *Replica) alignGroup(g *ordGroup, node *paxos.Node, apply func(paxos.Effects)) {
	if len(r.groups) == 1 {
		return
	}
	for n := slotsToFill(int64(node.Log().Next()), r.maxSlot.Load(), g.mergeWant.Load(),
		node.IsLeader(), node.WindowOpen()); n > 0 && node.WindowOpen(); n-- {
		value, ok := g.proposalQ.TryTake()
		if !ok {
			if r.cutOpenBatch(g) {
				break // the cut batch arrives with its own evProposalReady
			}
			value = wire.EncodeBatch(nil)
			r.padsProposed.Add(1)
		}
		e, accepted := node.ProposeBatch(value)
		if !accepted {
			break
		}
		apply(e)
	}
	next := int64(node.Log().Next())
	g.nextSlot.Store(next)
	for {
		cur := r.maxSlot.Load()
		if next <= cur {
			return
		}
		if r.maxSlot.CompareAndSwap(cur, next) {
			break
		}
	}
	// Frontier extended: wake the sibling leaders it leaves more than a row
	// behind (a plain proposal-ready nudge re-runs this on their event loop).
	for _, h := range r.groups {
		if h != g && h.isLeader.Load() && h.nextSlot.Load() < next-1 {
			_, _ = h.dispatchQ.TryPut(event{kind: evProposalReady})
		}
	}
}

// cutOpenBatch asks the group's Batcher to flush the batch it is filling now
// instead of at its deadline, and reports whether one is on its way. The nil
// request only wakes the Batcher out of its Poll; the flag carries the ask,
// so a full RequestQueue loses nothing.
func (r *Replica) cutOpenBatch(g *ordGroup) bool {
	if g.openBatch.CompareAndSwap(batchOpen, batchCutAsked) {
		_, _ = g.requestQ.TryPut(nil)
	}
	return g.openBatch.Load() != batchIdle
}
