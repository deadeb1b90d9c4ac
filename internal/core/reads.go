package core

import (
	"sync"
	"sync/atomic"
	"time"

	"gosmr/internal/profiling"
	"gosmr/internal/queue"
	"gosmr/internal/wire"
)

// The read path (reads.go + lease.go) serves read-only requests without
// ordering them through the log:
//
//   - On the leaseholder: check the lease, snapshot the read frontier (the
//     first merged index not yet known decided), wait until local execution
//     covers everything below it, execute against the service, reply.
//   - On a follower: batch waiting reads behind ONE ReadIndexQuery to the
//     leaseholder; its ReadIndexResp carries the frontier, and the reads
//     execute locally once the follower's own execution passes it.
//
// Any read the replica cannot serve — leases disabled, lease lost, the
// leaseholder unreachable — is bounced with an !OK reply and the client
// falls back to an ordered Execute, which is always correct.
//
// Reads execute on the ReadManager (or ServiceManager) thread concurrently
// with the execution stage, so the Service must tolerate concurrent Execute
// calls for read-only requests (the bundled KV store does; see gosmr.Config
// documentation).

// readReq is one in-flight client read.
type readReq struct {
	req *wire.ClientRead // retained; released when replied
	cc  *clientConn
}

// readEvent is one ReadManager queue item.
type readEvent struct {
	kind  uint8
	req   *wire.ClientRead // rSubmit
	cc    *clientConn      // rSubmit
	seq   uint64           // rResp: read-index round
	index wire.InstanceID  // rResp
	ok    bool             // rResp
}

const (
	rSubmit uint8 = iota + 1
	rResp
	rTimer
)

// readMgr is the ReadManager module: one goroutine owning all read-path
// state, fed by ClientIO workers (submissions) and ReplicaIO readers
// (read-index responses).
type readMgr struct {
	r *Replica
	q *queue.Bounded[readEvent]

	pending []readReq // follower reads awaiting the next index query
	// At most one read-index round is outstanding: inflight holds its reads
	// (nil when none) and querySeq its query's sequence number. One timer
	// expires it: armed at launched by launchQuery, stopped by handleResp.
	inflight []readReq
	querySeq uint64
	expiry   *time.Timer
	launched time.Time
}

func newReadMgr(r *Replica) *readMgr {
	m := &readMgr{
		r: r,
		q: queue.NewBounded[readEvent]("ReadQueue", r.cfg.RequestQueueCap),
	}
	// Posts rTimer; re-arms itself while the nudge races a full queue, so a
	// round can never wedge the single-outstanding-query slot.
	m.expiry = time.AfterFunc(time.Hour, func() {
		if ok, err := m.q.TryPut(readEvent{kind: rTimer}); !ok && err == nil {
			m.expiry.Reset(r.cfg.RetransPeriod)
		}
	})
	m.expiry.Stop()
	return m
}

// deliverResp hands a ReadIndexResp from a ReplicaIO reader to the manager.
// Best-effort: a drop times the round out and the clients fall back.
func (m *readMgr) deliverResp(seq uint64, index wire.InstanceID, ok bool) {
	_, _ = m.q.TryPut(readEvent{kind: rResp, seq: seq, index: index, ok: ok})
}

// run is the ReadManager thread body.
func (m *readMgr) run() {
	defer m.r.wg.Done()
	defer m.expiry.Stop()
	th := m.r.profThread("ReadManager")
	th.Transition(profiling.StateBusy)
	defer th.Transition(profiling.StateOther)
	for {
		ev, err := m.q.Take(th)
		if err != nil {
			return
		}
		switch ev.kind {
		case rSubmit:
			m.handleSubmit(readReq{req: ev.req, cc: ev.cc})
		case rResp:
			m.handleResp(ev.seq, ev.index, ev.ok)
		case rTimer:
			// A fire that lost the race with its round's response finds no
			// round, or the next one still young (and its own timer armed).
			if m.inflight != nil && time.Since(m.launched) >= m.r.cfg.RetransPeriod {
				rr := m.inflight
				m.inflight = nil
				m.fail(rr)
			}
			m.launchQuery()
		}
	}
}

// handleSubmit routes one read: stable reads execute immediately against
// local state; linearizable reads take the lease path (leader) or the
// read-index path (follower).
func (m *readMgr) handleSubmit(rr readReq) {
	r := m.r
	if rr.req.Consistency == wire.ReadStable {
		m.serve([]readReq{rr})
		return
	}
	if !r.leases.enabled {
		m.fail([]readReq{rr})
		return
	}
	if r.IsLeader() && r.leaseValid(time.Now()) {
		// Order matters: validate the lease FIRST, then snapshot the
		// frontier — the frontier can only grow, so a frontier read after
		// the validity check covers everything decided at the moment the
		// lease was known valid (the read's linearization point).
		target := int64(r.readFrontier()) - 1
		reads := []readReq{rr}
		r.registerApplied(target, func() { m.serve(reads) })
		return
	}
	m.pending = append(m.pending, rr)
	m.launchQuery()
}

// launchQuery sends one ReadIndexQuery covering every pending read, keeping
// at most one round outstanding so concurrent reads coalesce behind it.
func (m *readMgr) launchQuery() {
	if len(m.pending) == 0 || m.inflight != nil {
		return
	}
	r := m.r
	leader := int(r.groups[0].leaderHint.Load())
	if leader == r.cfg.ID || !r.topo.Load().Active(leader) {
		// This replica believes it leads but the lease is not valid (or
		// leadership is in flux): bounce to the ordered path.
		rr := m.pending
		m.pending = nil
		m.fail(rr)
		return
	}
	m.querySeq++
	m.inflight = m.pending
	m.pending = nil
	r.enqueueSend(leader, &wire.ReadIndexQuery{Seq: m.querySeq})
	// Expire the round if the leaseholder never answers.
	m.launched = time.Now()
	m.expiry.Reset(r.cfg.RetransPeriod)
}

// handleResp completes one read-index round: wait for local execution to
// pass the returned frontier, then serve the round's reads.
func (m *readMgr) handleResp(seq uint64, index wire.InstanceID, ok bool) {
	if m.inflight == nil || seq != m.querySeq {
		return // stale response for a round that already timed out
	}
	rr := m.inflight
	m.inflight = nil
	m.expiry.Stop()
	if !ok {
		m.fail(rr)
	} else {
		reads := rr
		m.r.registerApplied(int64(index)-1, func() { m.serve(reads) })
	}
	m.launchQuery()
}

// serve executes a batch of reads against the local service and replies.
// Runs on the ReadManager thread (fast path: the applied watermark already
// covers the target) or the ServiceManager thread (a waiter fired).
func (m *readMgr) serve(rr []readReq) {
	r := m.r
	for _, x := range rr {
		payload := r.svc.Execute(x.req.Payload)
		r.localReads.Add(1)
		m.reply(x, true, wire.NoRedirect, payload)
	}
}

// fail bounces a batch of reads; the !OK reply makes the clients fall back
// to an ordered Execute.
func (m *readMgr) fail(rr []readReq) {
	leader := m.r.groups[0].leaderHint.Load()
	for _, x := range rr {
		m.reply(x, false, leader, nil)
	}
}

func (m *readMgr) reply(x readReq, ok bool, redirect int32, payload []byte) {
	out := wire.NewClientReply()
	out.ClientID, out.Seq = x.req.ClientID, x.req.Seq
	out.OK, out.Redirect, out.Payload = ok, redirect, payload
	if sent, _ := x.cc.replies.TryPut(out); sent {
		m.r.repliesSent.Add(1)
	} else {
		wire.Release(out)
	}
	wire.Release(x.req)
}

// applyWaiters is the ServiceManager's applied-index waiter registry: reads
// park here until local execution has fully covered their target merged
// index. `completed` only advances after the executor is quiesced, so a
// fired waiter observes every effect of every request at or below its
// target. The atomic count keeps the no-waiters common case to one atomic
// load on the decision hot path.
type applyWaiters struct {
	count     atomic.Int32
	mu        sync.Mutex
	completed int64
	waiters   []applyWaiter
}

type applyWaiter struct {
	target int64
	fn     func()
}

// takeFiredLocked splits off every waiter at or below the completed
// watermark. Callers fire the returned funcs after unlocking.
func (w *applyWaiters) takeFiredLocked() []func() {
	if len(w.waiters) == 0 {
		return nil
	}
	var fire []func()
	keep := w.waiters[:0]
	for _, wt := range w.waiters {
		if wt.target <= w.completed {
			fire = append(fire, wt.fn)
		} else {
			keep = append(keep, wt)
		}
	}
	w.waiters = keep
	w.count.Store(int32(len(keep)))
	return fire
}

// registerApplied calls fn once every merged index at or below target has
// been executed locally. Fires inline when already satisfied, otherwise from
// the ServiceManager thread; fn must not block.
func (r *Replica) registerApplied(target int64, fn func()) {
	w := &r.applied
	w.mu.Lock()
	if target <= w.completed {
		w.mu.Unlock()
		fn()
		return
	}
	w.waiters = append(w.waiters, applyWaiter{target: target, fn: fn})
	w.count.Store(int32(len(w.waiters)))
	w.mu.Unlock()
	// Nudge an idle ServiceManager: if its position already covers the
	// target it only needs to quiesce and publish. Best-effort — a busy
	// manager re-checks after every decision anyway.
	_, _ = r.decisionQ.TryPut(decisionItem{id: -1})
}

// serveApplied (ServiceManager thread only) wakes reads whose target the
// manager's position has reached: quiesce the workers — a scheduled request
// is not necessarily executed yet — publish the watermark, fire.
func (r *Replica) serveApplied(th *profiling.Thread, position int64) {
	w := &r.applied
	if w.count.Load() == 0 {
		return
	}
	w.mu.Lock()
	due := false
	for _, wt := range w.waiters {
		if wt.target <= position {
			due = true
			break
		}
	}
	w.mu.Unlock()
	if !due {
		return
	}
	r.exec.Quiesce(th)
	w.mu.Lock()
	if position > w.completed {
		w.completed = position
	}
	fire := w.takeFiredLocked()
	w.mu.Unlock()
	for _, fn := range fire {
		fn()
	}
}

// bumpApplied advances the watermark directly after a snapshot install (the
// restore already quiesced the workers and covers everything below it).
func (r *Replica) bumpApplied(upTo int64) {
	w := &r.applied
	w.mu.Lock()
	if upTo > w.completed {
		w.completed = upTo
	}
	fire := w.takeFiredLocked()
	w.mu.Unlock()
	for _, fn := range fire {
		fn()
	}
}
