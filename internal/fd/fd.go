// Package fd implements the FailureDetector thread of Sec. V-C3. The leader
// sends heartbeats when its connections have been idle; followers suspect
// the leader when nothing has been received from it within the timeout.
//
// As in the paper, the per-peer send/receive timestamps are updated directly
// by the ReplicaIO threads using atomics, with no notification to the
// detector: since timestamps only ever move forward, an update can only
// delay the next action, so the detector can safely sleep until the
// originally computed deadline and re-evaluate then. This avoids a context
// switch per message.
package fd

import (
	"sync"
	"sync/atomic"
	"time"

	"gosmr/internal/profiling"
	"gosmr/internal/wire"
)

// Default intervals. The suspect timeout must comfortably exceed the
// heartbeat interval to tolerate scheduling jitter under load.
const (
	DefaultHeartbeatInterval = 50 * time.Millisecond
	DefaultSuspectTimeout    = 500 * time.Millisecond
)

// Options configures a Detector.
type Options struct {
	// ID is this replica's ID.
	ID int
	// Topology is the boot cluster shape: the peer set heartbeated and the
	// view→leader map suspected. SetTopology replaces it.
	Topology *wire.Topology
	// HeartbeatInterval is the maximum idle time before the leader sends a
	// heartbeat to a peer.
	HeartbeatInterval time.Duration
	// SuspectTimeout is how long a follower waits for leader traffic before
	// suspecting it.
	SuspectTimeout time.Duration
	// SendHeartbeat sends a heartbeat to peer (called from the detector
	// goroutine, must not block indefinitely).
	SendHeartbeat func(peer int)
	// ForceHeartbeat makes the leader heartbeat every peer once per
	// HeartbeatInterval regardless of connection idleness. Plain failure
	// detection only needs heartbeats on idle connections (any traffic
	// proves liveness), but leader leases renew via heartbeat-carried
	// grants, which must keep flowing under full proposal load.
	ForceHeartbeat bool
	// Suspect reports that the leader of view is suspected. Called at most
	// once per view, from the detector goroutine.
	Suspect func(view wire.View)
	// HoldSuspect, when non-nil, is consulted before reporting a suspicion.
	// Returning true skips the report WITHOUT recording the view as already
	// suspected, so the detector re-evaluates on its next tick and the
	// suspicion fires naturally once the hold lifts. Used to honor a leader
	// lease promise: electing a new leader while the old one may still be
	// serving local reads would violate lease safety.
	HoldSuspect func(view wire.View) bool
	// Thread receives profiling accounting (may be nil).
	Thread *profiling.Thread
}

// membership is the swappable peer-set state: the topology plus the
// per-peer timestamp arrays sized to its ID space. A reconfiguration builds
// a new membership (copying surviving timestamps) and swaps the pointer; a
// Touch racing the swap can lose one update, which at worst delays the next
// heartbeat/suspicion by an interval.
type membership struct {
	topo     *wire.Topology
	lastRecv []atomic.Int64 // unix nanos of last message received from peer
	lastSent []atomic.Int64 // unix nanos of last message sent to peer
}

// Detector is the failure-detector thread. Construct with New, stop with
// Stop.
type Detector struct {
	opts Options

	mem    atomic.Pointer[membership]
	lastHB []int64 // unix nanos of last forced heartbeat (detector goroutine only)

	view      atomic.Int32 // current view
	suspected atomic.Int32 // highest view already reported suspected; -1 none

	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// newMembership builds arrays for topo's ID space initialized to now.
func newMembership(topo *wire.Topology) *membership {
	n := len(topo.Peers)
	m := &membership{
		topo:     topo,
		lastRecv: make([]atomic.Int64, n),
		lastSent: make([]atomic.Int64, n),
	}
	now := time.Now().UnixNano()
	for i := range m.lastRecv {
		m.lastRecv[i].Store(now)
		m.lastSent[i].Store(now)
	}
	return m
}

// New returns a started Detector.
func New(opts Options) *Detector {
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if opts.SuspectTimeout <= 0 {
		opts.SuspectTimeout = DefaultSuspectTimeout
	}
	d := &Detector{
		opts:   opts,
		lastHB: make([]int64, len(opts.Topology.Peers)),
		stop:   make(chan struct{}),
	}
	d.mem.Store(newMembership(opts.Topology))
	d.suspected.Store(-1)
	d.wg.Add(1)
	go d.run()
	return d
}

// SetTopology swaps the peer set to a newly committed topology. Timestamps
// of surviving peers carry over; added peers start with a full timeout from
// now. Safe to call concurrently with Touch*/UpdateView.
func (d *Detector) SetTopology(topo *wire.Topology) {
	old := d.mem.Load()
	m := newMembership(topo)
	for i := 0; i < len(old.lastRecv) && i < len(m.lastRecv); i++ {
		m.lastRecv[i].Store(old.lastRecv[i].Load())
		m.lastSent[i].Store(old.lastSent[i].Load())
	}
	d.mem.Store(m)
}

// TouchRecv records that a message from peer was just received. Called by
// ReplicaIO reader threads; lock-free.
func (d *Detector) TouchRecv(peer int) {
	m := d.mem.Load()
	if peer >= 0 && peer < len(m.lastRecv) {
		m.lastRecv[peer].Store(time.Now().UnixNano())
	}
}

// TouchSent records that a message to peer was just sent. Called by
// ReplicaIO sender threads; lock-free.
func (d *Detector) TouchSent(peer int) {
	m := d.mem.Load()
	if peer >= 0 && peer < len(m.lastSent) {
		m.lastSent[peer].Store(time.Now().UnixNano())
	}
}

// UpdateView tells the detector the protocol moved to view v, resetting
// suspicion for the new leader.
func (d *Detector) UpdateView(v wire.View) {
	d.view.Store(int32(v))
	// Give the new leader a full timeout from now.
	now := time.Now().UnixNano()
	m := d.mem.Load()
	leader := m.topo.Leader(v)
	if leader >= 0 && leader < len(m.lastRecv) {
		m.lastRecv[leader].Store(now)
	}
}

// View returns the detector's current view.
func (d *Detector) View() wire.View { return wire.View(d.view.Load()) }

// Stop terminates the detector thread and waits for it.
func (d *Detector) Stop() {
	d.once.Do(func() { close(d.stop) })
	d.wg.Wait()
}

// run is the FailureDetector thread body: sleep until the earliest possible
// deadline, then re-evaluate against the current timestamps.
func (d *Detector) run() {
	defer d.wg.Done()
	th := d.opts.Thread
	// Polling at a fraction of the heartbeat interval implements the
	// "sleep until original deadline, then re-check" rule with enough
	// resolution for both roles.
	tick := d.opts.HeartbeatInterval / 2
	if tick <= 0 {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		th.Transition(profiling.StateOther) // sleeping
		select {
		case <-d.stop:
			th.Transition(profiling.StateWaiting)
			return
		case <-ticker.C:
		}
		th.Transition(profiling.StateBusy)
		d.evaluate(time.Now())
	}
}

// evaluate performs one leader-heartbeat / follower-suspicion pass.
func (d *Detector) evaluate(now time.Time) {
	view := wire.View(d.view.Load())
	m := d.mem.Load()
	leader := m.topo.Leader(view)
	if leader == d.opts.ID {
		// Leader role: heartbeat any peer whose connection has been idle —
		// or, under ForceHeartbeat, any peer not explicitly heartbeated for
		// an interval, even if proposal traffic kept the connection busy
		// (lease grants ride only on heartbeats).
		if len(d.lastHB) < len(m.lastSent) {
			d.lastHB = append(d.lastHB, make([]int64, len(m.lastSent)-len(d.lastHB))...)
		}
		cutoff := now.Add(-d.opts.HeartbeatInterval).UnixNano()
		for p := range m.lastSent {
			if p == d.opts.ID || !m.topo.Active(p) {
				continue
			}
			due := m.lastSent[p].Load() <= cutoff
			if d.opts.ForceHeartbeat {
				due = d.lastHB[p] <= cutoff
			}
			if due && d.opts.SendHeartbeat != nil {
				d.opts.SendHeartbeat(p)
				m.lastSent[p].Store(now.UnixNano())
				d.lastHB[p] = now.UnixNano()
			}
		}
		return
	}
	// Follower role: suspect a silent leader, once per view.
	if leader < 0 || leader >= len(m.lastRecv) {
		return
	}
	cutoff := now.Add(-d.opts.SuspectTimeout).UnixNano()
	if m.lastRecv[leader].Load() <= cutoff && d.suspected.Load() < int32(view) {
		if d.opts.HoldSuspect != nil && d.opts.HoldSuspect(view) {
			return // promise active: retry next tick, don't mark suspected
		}
		d.suspected.Store(int32(view))
		if d.opts.Suspect != nil {
			d.opts.Suspect(view)
		}
	}
}
