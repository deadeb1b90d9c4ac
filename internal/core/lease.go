package core

import (
	"math"
	"sync"
	"time"

	"gosmr/internal/wire"
)

// leaseManager tracks both sides of the heartbeat-carried leader lease that
// lets the leader serve linearizable reads without ordering them.
//
// Grant side (leader): every group-0 heartbeat to a peer carries a grant
// (duration + sequence number). The peer's LeaseAck echoes the sequence
// number, and the leader derives the promise's expiry from the moment IT
// SENT that grant, minus MaxClockSkew — so each side measures the interval
// on its own clock, and the skew margin absorbs rate drift between them. The
// lease is valid while a majority (counting the leader itself) holds
// unexpired promises for the current view.
//
// Promise side (follower): accepting a grant promises not to help elect a
// different leader until the promise expires. The promise is enforced in two
// places: the failure detector holds suspicions (fd.Options.HoldSuspect),
// and every group's Protocol thread defers incoming Prepares from anyone but
// the promised leader (holdPrepare). Together with the leader-side skew
// margin this gives the classic quorum-intersection argument: a new leader
// needs a majority of Prepare responses, the old leaseholder held promises
// from a majority, and any replica in both either let its promise expire
// first (so the leaseholder's matching ack expired even earlier, on the
// leader's conservative clock) or IS the old leader — which revokes its own
// lease by adopting the higher view before its PrepareOK leaves (see
// applyEffects: refreshHints precedes send emission).
type leaseManager struct {
	mu sync.Mutex

	enabled  bool
	id       int
	duration time.Duration
	skew     time.Duration
	topo     *wire.Topology // quorum + active set

	// Grant side. The per-peer tables span topo's ID space.
	seq    uint64
	grants [][]grantRec // outstanding grants per peer, oldest first
	ackVw  []wire.View  // view of each peer's newest promise
	ackExp []time.Time  // leader-side conservative expiry of that promise

	// Promise side.
	promLeader int
	promView   wire.View
	promExpiry time.Time
}

// grantRec remembers one grant in flight, so the matching ack can anchor the
// promise's expiry to the grant's send time.
type grantRec struct {
	seq  uint64
	sent time.Time
}

// maxOutstandingGrants bounds per-peer grant memory; acks normally arrive
// within one heartbeat round-trip, so a small window loses nothing.
const maxOutstandingGrants = 8

func newLeaseManager(id int, duration, skew time.Duration, topo *wire.Topology) *leaseManager {
	lm := &leaseManager{
		enabled:    duration > 0,
		id:         id,
		duration:   duration,
		skew:       skew,
		promLeader: -1,
	}
	lm.setTopology(topo)
	return lm
}

// setTopology grows the per-peer tables to t's ID space and adopts its
// quorum/active set. Promises already recorded for surviving peers carry
// over.
func (lm *leaseManager) setTopology(t *wire.Topology) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for len(lm.grants) < len(t.Peers) {
		lm.grants = append(lm.grants, nil)
		lm.ackVw = append(lm.ackVw, -1)
		lm.ackExp = append(lm.ackExp, time.Time{})
	}
	lm.topo = t.Clone()
}

// grant issues a lease grant to peer for view, to be piggybacked on a group-0
// heartbeat. Returns the wire fields (duration in ms, sequence number) and
// whether a grant should be attached at all.
func (lm *leaseManager) grant(peer int) (uint32, uint64, bool) {
	if lm == nil || !lm.enabled {
		return 0, 0, false
	}
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if peer < 0 || peer >= len(lm.grants) {
		return 0, 0, false
	}
	lm.seq++
	g := lm.grants[peer]
	if len(g) >= maxOutstandingGrants {
		copy(g, g[1:])
		g = g[:len(g)-1]
	}
	lm.grants[peer] = append(g, grantRec{seq: lm.seq, sent: time.Now()})
	return uint32(lm.duration / time.Millisecond), lm.seq, true
}

// onAck records a peer's promise. The expiry is computed from the grant's
// SEND time on the leader's own clock, shortened by the skew bound, so the
// leader always stops relying on a promise before the follower stops
// honoring it.
func (lm *leaseManager) onAck(peer int, view wire.View, seq uint64) {
	if lm == nil || !lm.enabled {
		return
	}
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if peer < 0 || peer >= len(lm.grants) {
		return
	}
	for _, gr := range lm.grants[peer] {
		if gr.seq != seq {
			continue
		}
		exp := gr.sent.Add(lm.duration - lm.skew)
		switch {
		case view > lm.ackVw[peer]:
			lm.ackVw[peer], lm.ackExp[peer] = view, exp
		case view == lm.ackVw[peer] && exp.After(lm.ackExp[peer]):
			lm.ackExp[peer] = exp
		}
		return
	}
}

// ackQuorumValid reports whether a majority (counting this replica) holds
// unexpired promises for view v at time now.
func (lm *leaseManager) ackQuorumValid(v wire.View, now time.Time) bool {
	if lm == nil || !lm.enabled {
		return false
	}
	lm.mu.Lock()
	defer lm.mu.Unlock()
	count := 1 // self: revocation is the viewHint flip, not a promise
	for p := range lm.ackVw {
		if p != lm.id && lm.topo.Active(p) && lm.ackVw[p] == v && lm.ackExp[p].After(now) {
			count++
		}
	}
	return count >= lm.topo.Quorum()
}

// onGrant handles a grant received from the group-0 leader: extend the local
// promise and return the ack to send back, or nil for stale grants.
func (lm *leaseManager) onGrant(from int, view wire.View, durMS uint32, seq uint64) *wire.LeaseAck {
	if lm == nil || !lm.enabled {
		return nil
	}
	exp := time.Now().Add(time.Duration(durMS) * time.Millisecond)
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if view < lm.promView {
		return nil // grant from a view this replica already moved past
	}
	if view > lm.promView || exp.After(lm.promExpiry) {
		lm.promLeader, lm.promView, lm.promExpiry = from, view, exp
	}
	// Ack even a non-extending grant: its expiry (grant send time + duration
	// − skew on the leader's clock) is conservative regardless.
	return &wire.LeaseAck{View: view, Seq: seq}
}

// holdSuspect is the failure detector's HoldSuspect hook: while the local
// promise is unexpired, suppress suspicion (without marking the view
// suspected — the detector re-checks every tick and fires once the promise
// lapses).
func (lm *leaseManager) holdSuspect(wire.View) bool {
	if lm == nil || !lm.enabled {
		return false
	}
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return time.Now().Before(lm.promExpiry)
}

// holdPrepare returns how long an incoming Prepare from `from` must be
// deferred to honor the local promise (0 = process now). The promised leader
// itself is exempt: it cannot violate its own lease, and its new ballot must
// not be slowed down. Applied in EVERY ordering group — a sibling-group
// election completing under an active promise could commit writes the
// group-0 leaseholder's local reads would miss.
func (lm *leaseManager) holdPrepare(from int, now time.Time) time.Duration {
	if lm == nil || !lm.enabled {
		return 0
	}
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if from == lm.promLeader {
		return 0
	}
	if d := lm.promExpiry.Sub(now); d > 0 {
		return d
	}
	return 0
}

// leaseValid reports whether this replica may serve linearizable reads
// locally right now: it leads every ordering group in the current (group-0)
// view, every group's decision watermark has passed its read barrier — so
// every command a previous leadership could have acknowledged is decided
// here (leader completeness) — and a majority holds unexpired lease
// promises for that view. Lock-free except the ack scan; callable from any
// thread.
func (r *Replica) leaseValid(now time.Time) bool {
	if !r.leases.enabled {
		return false
	}
	v0 := wire.View(r.groups[0].viewHint.Load())
	for _, g := range r.groups {
		if !g.isLeader.Load() || wire.View(g.viewHint.Load()) != v0 {
			return false
		}
		if g.decidedUpTo.Load() < g.readBarrier.Load() {
			return false
		}
	}
	return r.leases.ackQuorumValid(v0, now)
}

// readFrontier returns the first merged index not yet known decided — the
// read index. Every merged index below it is decided in its group (merged
// index m lives in group m%G at slot m/G, and each group's watermark covers
// slot m/G), so a read that waits for local execution to pass frontier−1
// observes every command the cluster could have acknowledged when the
// frontier was snapshotted.
func (r *Replica) readFrontier() wire.InstanceID {
	g0 := int64(len(r.groups))
	f := int64(math.MaxInt64)
	for _, g := range r.groups {
		if v := g.decidedUpTo.Load()*g0 + int64(g.idx); v < f {
			f = v
		}
	}
	return wire.InstanceID(f)
}
