// Package paxos implements the MultiPaxos protocol state machine that the
// Protocol thread executes (Sec. III-A and V-C2), including the batching and
// pipelining optimizations the paper assumes throughout ([12]):
//
//   - Views number leadership epochs; the leader of view v is the
//     (v mod n)-th active replica of the topology. A replica that suspects
//     the leader advances to the next view and, if it is that view's leader,
//     runs Phase 1 over the unstable log suffix (one Prepare for all
//     instances, as in JPaxos).
//   - Phase 2 runs per instance; each instance carries one batch. Up to
//     `window` instances (the paper's WND parameter) are in flight at once.
//   - Followers send Phase 2b (Accept) only to the leader. They learn
//     decisions from the DecidedUpTo watermark piggybacked on Propose and
//     Heartbeat messages, and fill gaps via catch-up.
//   - The leader's own acceptor is just another acceptor: with
//     Options.DeferSelfVote its Phase 2b vote is an Accept addressed to
//     itself, which the caller hands back once the accept is durable, so the
//     leader's disk works beside its followers' instead of ahead of them.
//
// The Node is a pure state machine: it performs no I/O and starts no
// goroutines. Every event handler returns an Effects value describing what
// the caller must do (send messages, deliver decisions, cancel
// retransmissions, ...). It is owned by a single goroutine — the Protocol
// thread — which is what makes the replication core thread-safe without
// locks (the paper's "no-lock rule").
package paxos

import (
	"fmt"

	"gosmr/internal/storage"
	"gosmr/internal/wire"
)

// Broadcast as a SendEffect target means "all peers".
const Broadcast = -1

// RetransKind distinguishes retransmittable message classes.
type RetransKind uint8

// Retransmission key kinds.
const (
	RetransPrepare RetransKind = iota + 1
	RetransPropose
)

// RetransKey identifies one retransmittable message so the caller can pair
// registration with the lock-free cancel of Sec. V-C4.
type RetransKey struct {
	Kind RetransKind
	View wire.View
	ID   wire.InstanceID
}

// String formats the key for logs.
func (k RetransKey) String() string {
	switch k.Kind {
	case RetransPrepare:
		return fmt.Sprintf("prepare/v%d", k.View)
	case RetransPropose:
		return fmt.Sprintf("propose/%d", k.ID)
	default:
		return fmt.Sprintf("retrans(%d)/v%d/%d", k.Kind, k.View, k.ID)
	}
}

// SendEffect instructs the caller to transmit Msg. If Retrans is non-nil the
// message must be registered for retransmission under that key.
//
// Vote marks a message that speaks for this node's acceptor: a Phase 2b
// vote, a Phase 1b promise, or the Prepare by which a candidate counts its
// own promise. A caller that journals the log must hold it until everything
// journaled so far is durable — an acceptor that forgets a vote it cast
// breaks quorum intersection. Nothing else needs holding: a Propose carries
// no acceptor state (the leader's vote for it is a separate Accept, and a
// restarted leader takes a fresh ballot, see Start), and decisions and
// catch-up values are facts about a majority of such votes.
type SendEffect struct {
	To      int // peer ID, Broadcast, or this node's own ID (Options.DeferSelfVote)
	Msg     wire.Message
	Retrans *RetransKey
	Vote    bool
}

// Decision is one decided instance, emitted in strict log order.
type Decision struct {
	ID    wire.InstanceID
	Value []byte // an encoded batch (possibly empty: a no-op)
}

// LeaseGrant surfaces a lease grant piggybacked on a leader heartbeat, after
// the node validated it against its view state (sender is the leader of the
// heartbeat's view, and the view is current — a stale grant is dropped with
// its stale heartbeat). The caller starts its local promise timer and
// acknowledges with a wire.LeaseAck; the node itself keeps no wall-clock
// state (it stays a pure state machine).
type LeaseGrant struct {
	From       int
	View       wire.View
	DurationMS uint32
	Seq        uint64
}

// Effects is everything an event handler asks the caller to do. The zero
// value means "nothing".
type Effects struct {
	// Sends lists messages to transmit, in order.
	Sends []SendEffect
	// Decisions lists newly decided instances, contiguous and in order.
	Decisions []Decision
	// CancelRetrans lists retransmissions to cancel.
	CancelRetrans []RetransKey
	// ViewChanged reports that View()/IsLeader() changed; the caller should
	// inform the failure detector.
	ViewChanged bool
	// CatchUp, if non-nil, asks the caller to send this query to a peer that
	// is likely to have the decided values (normally the leader).
	CatchUp *wire.CatchUpQuery
	// CatchUpGen identifies the CatchUp query for timeout pairing: the
	// caller's response timer must hand it back to CatchUpTimeout, which
	// ignores stale generations (a response already landed and a newer query
	// may be in flight).
	CatchUpGen uint64
	// InstallSnapshot, if non-nil, describes a snapshot this node needs
	// installed. Only the metadata travels through consensus: the execution
	// layer pulls the snapshot's image from the responder in bounded chunk
	// frames, persists it durably, and only then releases FastForward to
	// every group — so no group ever journals a cut that outruns the
	// snapshot covering it (a crash between the two would otherwise leave
	// an unbootable data directory).
	InstallSnapshot *wire.SnapshotMeta
	// Lease, if non-nil, is a view-validated lease grant from the current
	// leader's heartbeat; the caller runs the wall-clock side (promise timer
	// + LeaseAck).
	Lease *LeaseGrant
}

func (e *Effects) send(to int, msg wire.Message) {
	e.Sends = append(e.Sends, SendEffect{To: to, Msg: msg})
}

func (e *Effects) vote(to int, msg wire.Message) {
	e.Sends = append(e.Sends, SendEffect{To: to, Msg: msg, Vote: true})
}

// SnapshotProvider supplies the metadata of the most recent snapshot for
// catch-up responses that need state transfer — the state itself is served
// chunk by chunk off the consensus thread. It must be cheap and safe to
// call from the Protocol thread; ok=false means "no snapshot available"
// (the responder then sends whatever decided values it retains).
type SnapshotProvider func() (wire.SnapshotMeta, bool)

// ColdDecidedReader serves decided values below the in-memory log's
// truncation base from durable storage (the group's WAL retains the previous
// checkpoint generation). It must return a contiguous decided prefix
// starting exactly at from, holding at most maxEntries values; ok is false
// when the store cannot serve `from` at all — the requester then needs a
// snapshot. A partial prefix (capped or bounded by to) with ok=true is fine:
// the requester's follow-up query pages through the rest.
type ColdDecidedReader func(from, to wire.InstanceID, maxEntries int) (vals []wire.DecidedValue, ok bool)

// Catch-up response caps: one CatchUpResp never carries more than this many
// decided values or (approximately) this many payload bytes. A lagging
// replica pages through larger gaps with follow-up queries, so a single
// response cannot balloon into an unbounded frame.
const (
	DefaultCatchUpMaxEntries = 512
	DefaultCatchUpMaxBytes   = 1 << 20
)

// openInstance tracks a leader's in-flight Phase 2 instance.
type openInstance struct {
	value []byte
	acks  map[int]bool
}

// Node is the per-replica, per-group protocol state machine. Not safe for
// concurrent use: it is owned by its group's Protocol thread.
type Node struct {
	id     int
	window int
	group  int // ordering group this node runs
	groups int // total ordering groups in the replica

	// topo is the epoch-stamped cluster topology: quorum size and the
	// view→leader map read it. Replaced by SetTopology on the owner thread
	// when a reconfiguration command is applied.
	topo *wire.Topology

	log *storage.Log

	view      wire.View
	leading   bool // leader of view with Phase 1 complete
	preparing bool // Prepare sent for view, awaiting majority

	prepareOKs    map[int]bool
	prepareMerged map[wire.InstanceID]wire.InstanceState

	open map[wire.InstanceID]*openInstance

	// deferSelfVote: see Options.DeferSelfVote. staleView is the view a
	// recovered node restarted in and must never lead again (see Start);
	// storage.NoView on a node that started with no log.
	deferSelfVote bool
	staleView     wire.View

	lastDelivered  wire.InstanceID // all instances below have been emitted
	leaderUpTo     wire.InstanceID // highest decision watermark seen from a leader
	electionFloor  wire.InstanceID // first fresh instance of this leadership (read barrier)
	catchUpPending bool
	catchUpGen     uint64 // bumped per issued query; pairs timeouts with queries
	// pendingInstall is the group-local cut of a snapshot this node surfaced
	// (InstallSnapshot effect) whose two-phase install has not come back as a
	// FastForward yet. While set, duplicate catch-up responses do not
	// re-surface the same snapshot; CatchUpTimeout clears it so a refused
	// install (persist failure downstream) is retried at timer pace.
	pendingInstall wire.InstanceID

	snapshots         SnapshotProvider
	coldDecided       ColdDecidedReader
	catchUpMaxEntries int
	catchUpMaxBytes   int
}

// Options configures a Node.
type Options struct {
	// ID is this replica's ID: an active member of Topology, or in [0, N).
	ID int
	// N is the cluster size, read only when Topology is nil: the node then
	// runs in the hole-free epoch-0 topology of N replicas.
	N int
	// Window is the maximum number of concurrently executing instances
	// (the paper's WND); defaults to 10, the paper's baseline.
	Window int
	// Group is the ordering group this node runs, in [0, Groups); Groups is
	// the replica's total group count (both default to the single-group
	// configuration). They scope snapshot positions: a transferred snapshot
	// is cut at a *merged* index, and the node derives its own log's cut
	// with wire.GroupCut.
	Group  int
	Groups int
	// Snapshots supplies snapshots for catch-up state transfer (may be nil).
	Snapshots SnapshotProvider
	// ColdDecided, when non-nil, serves decided values below the log's
	// truncation base from durable storage (the group's WAL), so a catch-up
	// query whose gap is disk-covered is answered with values instead of a
	// full snapshot transfer.
	ColdDecided ColdDecidedReader
	// CatchUpMaxEntries and CatchUpMaxBytes cap one catch-up response
	// (defaults DefaultCatchUpMaxEntries / DefaultCatchUpMaxBytes); larger
	// gaps are served across progress-gated follow-up queries.
	CatchUpMaxEntries int
	CatchUpMaxBytes   int
	// Log, when non-nil, seeds the node with a recovered replicated log
	// (crash-restart recovery): delivery resumes at the log's base and
	// Start re-emits the already-decided prefix so the execution stage can
	// rebuild its state. Nil starts with an empty log.
	Log *storage.Log
	// View is the initial (recovered) view — the acceptor's durable
	// promise. Zero for a fresh node.
	View wire.View
	// Topology is the epoch-stamped cluster topology this node boots in
	// (recovered from WAL/snapshot or the seed config): quorum size and the
	// view→leader map read it.
	Topology *wire.Topology
	// DeferSelfVote is for a caller that journals the log and releases votes
	// only once they are durable (group commit). The leader then does not
	// count its own Phase 2b vote when it proposes: the vote comes out as an
	// Accept addressed to the node's own ID, and the caller feeds it back
	// through HandleMessage when the instance's accept record is on disk —
	// like every other acceptor's vote, and under the same view, leadership
	// and open-instance checks. Any majority of durable acceptors decides; a
	// Propose never waits for the leader's disk. Unset, the self-vote is
	// counted inside the proposing call.
	DeferSelfVote bool
}

// NewNode returns a Node in view 0 with an empty log. No messages are sent
// until an event requires them; if this replica is the leader of view 0 it
// establishes leadership lazily via Start.
func NewNode(opts Options) *Node {
	if opts.Window <= 0 {
		opts.Window = 10
	}
	if opts.Topology == nil {
		if opts.N <= 0 {
			panic("paxos: N must be positive")
		}
		opts.Topology = &wire.Topology{Peers: make([]string, opts.N)}
		for i := range opts.Topology.Peers {
			opts.Topology.Peers[i] = fmt.Sprint(i)
		}
	}
	if !opts.Topology.Active(opts.ID) {
		panic(fmt.Sprintf("paxos: ID %d not active in topology epoch %d", opts.ID, opts.Topology.Epoch))
	}
	if opts.Groups <= 0 {
		opts.Groups = 1
	}
	if opts.Group < 0 || opts.Group >= opts.Groups {
		panic(fmt.Sprintf("paxos: Group %d out of range [0,%d)", opts.Group, opts.Groups))
	}
	log, staleView := opts.Log, opts.View
	if log == nil {
		log, staleView = storage.NewLog(), storage.NoView
	}
	if opts.CatchUpMaxEntries <= 0 {
		opts.CatchUpMaxEntries = DefaultCatchUpMaxEntries
	}
	if opts.CatchUpMaxBytes <= 0 {
		opts.CatchUpMaxBytes = DefaultCatchUpMaxBytes
	}
	return &Node{
		id:     opts.ID,
		window: opts.Window,
		group:  opts.Group,
		groups: opts.Groups,
		topo:   opts.Topology,
		log:    log,
		view:   opts.View,
		open:   make(map[wire.InstanceID]*openInstance),

		deferSelfVote: opts.DeferSelfVote,
		staleView:     staleView,
		// Delivery resumes at the recovered log's base: the decided prefix
		// between base and the watermark is re-emitted by Start so the
		// service can be rebuilt from the last durable snapshot.
		lastDelivered:     log.Base(),
		snapshots:         opts.Snapshots,
		coldDecided:       opts.ColdDecided,
		catchUpMaxEntries: opts.CatchUpMaxEntries,
		catchUpMaxBytes:   opts.CatchUpMaxBytes,
	}
}

// ID returns this replica's ID.
func (nd *Node) ID() int { return nd.id }

// Group returns the ordering group this node runs.
func (nd *Node) Group() int { return nd.group }

// N returns the number of active replicas.
func (nd *Node) N() int { return nd.topo.N() }

// View returns the current view.
func (nd *Node) View() wire.View { return nd.view }

// Leader returns the leader of the current view.
func (nd *Node) Leader() int { return nd.leaderOf(nd.view) }

// leaderOf maps a view to its leader under the installed topology.
func (nd *Node) leaderOf(v wire.View) int { return nd.topo.Leader(v) }

// Topology returns the installed epoch-stamped topology.
func (nd *Node) Topology() *wire.Topology { return nd.topo }

// SetTopology installs a new epoch-stamped topology, replacing the quorum
// size and view→leader map, and performs the stop-the-group handoff: the
// node advances to the topology's BaseView, where Phase 1 runs again over
// the unstable suffix under the new shape. Owner-thread only; the caller
// must apply the returned Effects.
//
// BaseView is chosen above every view the proposer saw the old shape use,
// but the old shape may have moved past it before the command took effect —
// a view change raced it, or a restarted leader took its fresh ballot first
// (see Start). A view this node leads or campaigns in under the old shape
// must not simply be reread under the new map: it moves to the next view it
// leads under the new one and runs Phase 1 there. A follower of such a view
// stays put and follows whoever campaigns next.
func (nd *Node) SetTopology(t *wire.Topology) Effects {
	active := nd.leading || nd.preparing
	nd.topo = t
	var e Effects
	v := t.BaseView
	if nd.view >= v {
		if !active {
			return e
		}
		v = nd.nextLedView()
	}
	nd.advanceView(v, &e)
	return e
}

// nextLedView returns the lowest view above the current one that this
// replica leads (every active replica leads one view in n).
func (nd *Node) nextLedView() wire.View {
	v := nd.view + 1
	for nd.leaderOf(v) != nd.id {
		v++
	}
	return v
}

// IsLeader reports whether this replica is the established leader (Phase 1
// complete) of the current view.
func (nd *Node) IsLeader() bool { return nd.leading }

// Preparing reports whether this replica is a candidate awaiting Phase 1b
// responses.
func (nd *Node) Preparing() bool { return nd.preparing }

// ReadBarrier returns the first instance this leadership proposed fresh: the
// suffix below it was inherited from prior views during Phase 1. A leader
// may serve lease-based local reads only once DecidedUpTo reaches the
// barrier — before that, a command a previous leader acknowledged to a
// client may still be a re-proposal in flight, invisible to the merged
// order, and a local read could miss it (the leader-completeness condition
// of lease reads; Raft solves it with a no-op commit per term, here the
// Phase 1 re-proposals themselves are the barrier). Zero until this replica
// first establishes leadership; meaningless unless IsLeader.
func (nd *Node) ReadBarrier() wire.InstanceID { return nd.electionFloor }

// Log exposes the replicated log (for catch-up service and tests). Callers
// must run on the Protocol thread.
func (nd *Node) Log() *storage.Log { return nd.log }

// DecidedUpTo returns the watermark below which every instance is decided.
func (nd *Node) DecidedUpTo() wire.InstanceID { return nd.log.FirstUndecided() }

// InFlight returns the number of open (undecided, leader-proposed)
// instances.
func (nd *Node) InFlight() int { return len(nd.open) }

// SelfVotesPending returns the number of open instances still waiting for
// this leader's own deferred vote (always 0 without DeferSelfVote).
func (nd *Node) SelfVotesPending() int {
	n := 0
	for _, inst := range nd.open {
		if !inst.acks[nd.id] {
			n++
		}
	}
	return n
}

// WindowOpen reports whether the leader may start another instance
// (pipelining limit WND, Sec. VI-D2).
func (nd *Node) WindowOpen() bool { return nd.leading && len(nd.open) < nd.window }

// majority returns the quorum size under the current topology.
func (nd *Node) majority() int { return nd.topo.Quorum() }

// Start bootstraps the protocol: the decided prefix of a recovered log is
// re-emitted (so the caller can rebuild service state), and the leader of
// the current view — view 0 on a fresh start, the recovered promise after a
// restart — starts Phase 1. Other replicas do nothing until traffic or
// suspicion arrives.
//
// Fresh-ballot rule: a node started from a recovered log never leads the
// view it recovered. A Propose leaves the leader before its own accept is
// durable, so a leader killed in between restarts in the same view without
// the value a follower may already hold; leading that view again it could
// propose a different value under the same ballot, and the follower, having
// missed the new Propose, would decide its stale one from the watermark
// (observeWatermark trusts AcceptedView == view). So Phase 1 in the
// recovered view is only a probe: a majority answering it proves no
// majority has moved on to a live leader, and maybeFinishPrepare then moves
// to the next view this replica leads and runs Phase 1 again under a ballot
// nothing was ever proposed in. If the cluster did move on, the probe is
// ignored as stale and the first message from the real leader demotes this
// node, exactly as before.
func (nd *Node) Start() Effects {
	var e Effects
	nd.emitDecisions(&e)
	if nd.leaderOf(nd.view) == nd.id {
		nd.becomeCandidate(nd.view, &e)
	}
	return e
}

// OnSuspect handles a failure-detector suspicion of the leader of view v.
// Stale suspicions are ignored.
func (nd *Node) OnSuspect(v wire.View) Effects {
	var e Effects
	if v != nd.view {
		return e
	}
	nd.advanceView(nd.view+1, &e)
	return e
}

// AdvanceTo moves the node to view v if it is still below it, becoming
// candidate when this replica leads v. Multi-group replicas use it to keep
// sibling groups' view epochs converged on group 0's (the view the shared
// failure detector tracks): a group that missed a suspicion fan-out —
// delivery is best-effort — re-synchronizes on its next event instead of
// waiting forever on a dead leader. Advancing a view is always safe in
// Paxos; a no-op when v <= the current view.
func (nd *Node) AdvanceTo(v wire.View) Effects {
	var e Effects
	nd.advanceView(v, &e)
	return e
}

// advanceView moves to view v (> current), becoming candidate if this
// replica leads v.
func (nd *Node) advanceView(v wire.View, e *Effects) {
	if v <= nd.view {
		return
	}
	nd.abandonViewState(e)
	nd.view = v
	e.ViewChanged = true
	if nd.leaderOf(v) == nd.id {
		nd.becomeCandidate(v, e)
	}
}

// abandonViewState drops leader/candidate state of the old view and cancels
// its retransmissions.
func (nd *Node) abandonViewState(e *Effects) {
	if nd.preparing {
		e.CancelRetrans = append(e.CancelRetrans, RetransKey{Kind: RetransPrepare, View: nd.view})
	}
	for id := range nd.open {
		e.CancelRetrans = append(e.CancelRetrans, RetransKey{Kind: RetransPropose, View: nd.view, ID: id})
	}
	nd.preparing = false
	nd.leading = false
	nd.prepareOKs = nil
	nd.prepareMerged = nil
	nd.open = make(map[wire.InstanceID]*openInstance)
}

// becomeCandidate starts Phase 1 for view v (leader(v) == nd.id).
func (nd *Node) becomeCandidate(v wire.View, e *Effects) {
	nd.preparing = true
	nd.leading = false
	nd.prepareOKs = map[int]bool{nd.id: true}
	nd.prepareMerged = make(map[wire.InstanceID]wire.InstanceState)
	first := nd.log.FirstUndecided()
	// Merge our own acceptor state first.
	nd.mergePrepareEntries(nd.log.SuffixFrom(first), e)
	// The Prepare is a vote: prepareOKs already counts this node's promise.
	msg := &wire.Prepare{View: v, FirstUnstable: first}
	nd.sendToPeers(e, msg, RetransKey{Kind: RetransPrepare, View: v}, true)
	nd.maybeFinishPrepare(e)
}

// sendToPeers broadcasts msg to all other replicas, retransmitted under key.
// Alone in the topology there are no peers and nothing is sent.
func (nd *Node) sendToPeers(e *Effects, msg wire.Message, key RetransKey, vote bool) {
	if nd.topo.N() == 1 {
		return
	}
	e.Sends = append(e.Sends, SendEffect{To: Broadcast, Msg: msg, Retrans: &key, Vote: vote})
}

// HandleMessage dispatches a peer message to its handler.
func (nd *Node) HandleMessage(from int, msg wire.Message) Effects {
	var e Effects
	switch m := msg.(type) {
	case *wire.Prepare:
		nd.handlePrepare(from, m, &e)
	case *wire.PrepareOK:
		nd.handlePrepareOK(from, m, &e)
	case *wire.Propose:
		nd.handlePropose(from, m, &e)
	case *wire.Accept:
		nd.handleAccept(from, m, &e)
	case *wire.Heartbeat:
		nd.handleHeartbeat(from, m, &e)
	case *wire.CatchUpQuery:
		nd.handleCatchUpQuery(from, m, &e)
	case *wire.CatchUpResp:
		nd.handleCatchUpResp(m, &e)
	}
	return e
}

// adoptView follows a higher view observed in a peer message.
func (nd *Node) adoptView(v wire.View, e *Effects) {
	if v <= nd.view {
		return
	}
	nd.abandonViewState(e)
	nd.view = v
	e.ViewChanged = true
}

// handlePrepare is Phase 1b: promise and return the unstable suffix.
func (nd *Node) handlePrepare(from int, m *wire.Prepare, e *Effects) {
	if m.View < nd.view {
		return // stale candidate; our FD will sort out leadership
	}
	if nd.leaderOf(m.View) != from {
		return // not the leader of that view: ignore forged/buggy prepare
	}
	nd.adoptView(m.View, e)
	// m.View == nd.view now (adoptView is a no-op for equal views).
	ok := &wire.PrepareOK{View: m.View, Entries: nd.log.SuffixFrom(m.FirstUnstable)}
	e.vote(from, ok)
}

// handlePrepareOK collects Phase 1b responses and completes leadership on
// majority.
func (nd *Node) handlePrepareOK(from int, m *wire.PrepareOK, e *Effects) {
	if m.View != nd.view || !nd.preparing {
		return
	}
	if nd.prepareOKs[from] {
		return // duplicate
	}
	nd.prepareOKs[from] = true
	nd.mergePrepareEntries(m.Entries, e)
	nd.maybeFinishPrepare(e)
}

// mergePrepareEntries folds Phase 1b acceptor states into the candidate's
// merge table, keeping the value accepted in the highest view (Paxos value
// selection), and learning decided instances immediately.
func (nd *Node) mergePrepareEntries(entries []wire.InstanceState, e *Effects) {
	for _, st := range entries {
		if st.ID < nd.log.Base() {
			continue
		}
		if st.Decided {
			nd.log.MarkDecided(st.ID, st.Value)
			continue
		}
		prev, ok := nd.prepareMerged[st.ID]
		if !ok || st.AcceptedView > prev.AcceptedView {
			nd.prepareMerged[st.ID] = st
		}
	}
	nd.emitDecisions(e)
}

// maybeFinishPrepare completes Phase 1 once a majority has promised,
// re-proposing merged values and filling gaps with no-ops.
func (nd *Node) maybeFinishPrepare(e *Effects) {
	if !nd.preparing || len(nd.prepareOKs) < nd.majority() {
		return
	}
	if nd.view == nd.staleView {
		// The probe of a recovered view succeeded; take the fresh ballot
		// (see Start). advanceView re-enters here for a single replica.
		nd.advanceView(nd.nextLedView(), e)
		return
	}
	nd.preparing = false
	nd.leading = true
	e.ViewChanged = true // leadership established
	e.CancelRetrans = append(e.CancelRetrans, RetransKey{Kind: RetransPrepare, View: nd.view})

	// Determine the range to recover: everything from the first undecided
	// instance up to the highest instance seen anywhere.
	first := nd.log.FirstUndecided()
	maxSeen := nd.log.Next() - 1
	for id := range nd.prepareMerged {
		if id > maxSeen {
			maxSeen = id
		}
	}
	// Everything at or above this is a fresh proposal of this leadership;
	// once DecidedUpTo passes it, every command any prior leader could have
	// acknowledged is decided here too, and lease reads become safe.
	nd.electionFloor = maxSeen + 1
	for id := first; id <= maxSeen; id++ {
		if entry := nd.log.Get(id); entry != nil && entry.Decided {
			continue
		}
		value := wire.EncodeBatch(nil) // no-op filler
		if st, ok := nd.prepareMerged[id]; ok && st.AcceptedView != storage.NoView {
			value = st.Value
		}
		nd.proposeInstance(id, value, e)
	}
	nd.prepareMerged = nil
	nd.emitDecisions(e)
}

// ProposeBatch starts Phase 2 for a new batch. It returns false (and does
// nothing) when this replica is not an established leader or the pipeline
// window is full — the caller keeps the batch queued.
func (nd *Node) ProposeBatch(value []byte) (Effects, bool) {
	var e Effects
	if !nd.WindowOpen() {
		return e, false
	}
	id := nd.log.Next()
	if id < nd.log.FirstUndecided() {
		id = nd.log.FirstUndecided()
	}
	nd.proposeInstance(id, value, &e)
	return e, true
}

// proposeInstance runs Phase 2a for (id, value) in the current view. The
// leader accepts its own proposal; the vote that acceptance casts is counted
// here, or — deferred — travels to the caller as an Accept addressed to this
// node and is counted by handleAccept when it comes back durable.
func (nd *Node) proposeInstance(id wire.InstanceID, value []byte, e *Effects) {
	nd.log.Accept(id, nd.view, value)
	inst := &openInstance{value: value, acks: make(map[int]bool)}
	nd.open[id] = inst
	msg := &wire.Propose{View: nd.view, ID: id, DecidedUpTo: nd.log.FirstUndecided(), Value: value}
	nd.sendToPeers(e, msg, RetransKey{Kind: RetransPropose, View: nd.view, ID: id}, false)
	if nd.deferSelfVote {
		e.vote(nd.id, &wire.Accept{View: nd.view, ID: id})
		return
	}
	inst.acks[nd.id] = true
	nd.maybeDecide(id, inst, e)
}

// handlePropose is Phase 2b on the follower side.
func (nd *Node) handlePropose(from int, m *wire.Propose, e *Effects) {
	if m.View < nd.view {
		return
	}
	if nd.leaderOf(m.View) != from {
		return
	}
	// A Propose implies its sender established leadership of m.View, so
	// following a higher view here is safe.
	nd.adoptView(m.View, e)
	if m.ID >= nd.log.Base() {
		nd.log.Accept(m.ID, m.View, m.Value)
		e.vote(from, &wire.Accept{View: m.View, ID: m.ID})
	}
	nd.observeWatermark(m.View, m.DecidedUpTo, e)
}

// handleAccept counts Phase 2b acknowledgements at the leader — a peer's, or
// its own deferred vote handed back by the caller. A vote from an abandoned
// view, or for a slot since decided or covered by FastForward, is dropped.
func (nd *Node) handleAccept(from int, m *wire.Accept, e *Effects) {
	if m.View != nd.view || !nd.leading {
		return
	}
	inst, ok := nd.open[m.ID]
	if !ok {
		return // already decided or never ours
	}
	inst.acks[from] = true
	nd.maybeDecide(m.ID, inst, e)
}

// maybeDecide finalizes an instance once a majority has accepted it.
func (nd *Node) maybeDecide(id wire.InstanceID, inst *openInstance, e *Effects) {
	if len(inst.acks) < nd.majority() {
		return
	}
	delete(nd.open, id)
	e.CancelRetrans = append(e.CancelRetrans, RetransKey{Kind: RetransPropose, View: nd.view, ID: id})
	nd.log.MarkDecided(id, inst.value)
	nd.emitDecisions(e)
}

// handleHeartbeat processes the leader's liveness/watermark message. A lease
// grant riding on the heartbeat is surfaced only here — after the stale-view
// and leader-identity checks — so the caller's lease manager never sees a
// grant from anyone but the current view's leader.
func (nd *Node) handleHeartbeat(from int, m *wire.Heartbeat, e *Effects) {
	if m.View < nd.view {
		return
	}
	if nd.leaderOf(m.View) != from {
		return
	}
	nd.adoptView(m.View, e)
	if m.LeaseMS != 0 && m.View == nd.view && from != nd.id {
		e.Lease = &LeaseGrant{From: from, View: m.View, DurationMS: m.LeaseMS, Seq: m.LeaseSeq}
	}
	nd.observeWatermark(m.View, m.DecidedUpTo, e)
}

// observeWatermark learns decisions from the leader's DecidedUpTo: every
// instance below it that we accepted in the same view is decided with our
// accepted value; anything else below it is a gap to catch up on.
func (nd *Node) observeWatermark(view wire.View, upTo wire.InstanceID, e *Effects) {
	if upTo > nd.leaderUpTo {
		nd.leaderUpTo = upTo
	}
	for id := nd.log.FirstUndecided(); id < upTo; id++ {
		entry := nd.log.Get(id)
		if entry == nil || entry.Decided {
			continue
		}
		if entry.AcceptedView == view {
			nd.log.MarkDecided(id, nil)
		}
	}
	nd.emitDecisions(e)
	nd.maybeCatchUp(e)
}

// maybeCatchUp issues a catch-up query if decided instances are missing and
// no query is outstanding.
func (nd *Node) maybeCatchUp(e *Effects) {
	if nd.catchUpPending || nd.leaderUpTo <= nd.log.FirstUndecided() {
		return
	}
	missing := nd.log.MissingDecidedBelow(nd.leaderUpTo)
	if len(missing) == 0 {
		return
	}
	nd.catchUpPending = true
	nd.catchUpGen++
	e.CatchUp = &wire.CatchUpQuery{From: missing[0], To: nd.leaderUpTo}
	e.CatchUpGen = nd.catchUpGen
}

// CatchUpTimeout re-arms catch-up after the caller's response timer expires
// without an answer. gen is the Effects.CatchUpGen of the query the timer
// was armed for: a stale timeout — a response landed (and possibly issued a
// newer query) between the timer firing and this call — never re-queries,
// so it can never inject a duplicate query alongside a live one.
func (nd *Node) CatchUpTimeout(gen uint64) Effects {
	var e Effects
	// A surfaced snapshot whose install never came back as a FastForward
	// (lost nudge, or the persist was refused downstream) is re-surfaced at
	// timer pace rather than per-response. This runs on EVERY timeout,
	// stale or not: in a healthy-latency cluster responses beat their
	// timers, so the live-timeout path below may never execute — if the
	// reset lived only there, a refused install would wedge the replica
	// behind the cut forever. Clearing on a stale timeout is harmless: the
	// next response re-surfaces the snapshot and the installer deduplicates
	// against its floor (resending any lost acks, which is the heal).
	if nd.log.Base() < nd.pendingInstall {
		nd.pendingInstall = 0
	}
	if !nd.catchUpPending || gen != nd.catchUpGen {
		return e
	}
	nd.catchUpPending = false
	nd.maybeCatchUp(&e)
	return e
}

// handleCatchUpQuery serves decided values to a lagging replica, in up to
// three tiers: the in-memory log for the retained suffix, the cold store
// (the group's WAL, via Options.ColdDecided) for values between the
// truncation base and the WAL's own retention horizon, and a full snapshot
// only when the gap reaches below both. Responses are capped at
// catchUpMaxEntries/-MaxBytes; the requester pages through larger gaps with
// follow-up queries (progress-gated, so pagination cannot livelock).
func (nd *Node) handleCatchUpQuery(from int, m *wire.CatchUpQuery, e *Effects) {
	to := m.To
	if to > nd.log.FirstUndecided() {
		to = nd.log.FirstUndecided()
	}
	base := nd.log.Base()
	var vals []wire.DecidedValue
	needSnap := false
	if m.From < base {
		served := false
		if nd.coldDecided != nil {
			if cold, ok := nd.coldDecided(m.From, min(base, to), nd.catchUpMaxEntries); ok {
				vals, served = cold, true
			}
		}
		needSnap = !served
	}
	// The in-memory suffix rides along even when a snapshot is attached —
	// the requester applies whatever reaches above the snapshot cut and
	// saves itself a round — but only up to the remaining entry budget:
	// below FirstUndecided everything is decided, so clamping the scan
	// range is exact, and materializing a suffix the cap would discard
	// would make every pagination round O(retained log).
	if remaining := nd.catchUpMaxEntries - len(vals); remaining > 0 {
		lo := max(m.From, base)
		memTo := min(to, lo+wire.InstanceID(remaining))
		mem, _ := nd.log.DecidedInRange(lo, memTo)
		vals = append(vals, mem...)
	}
	vals = capCatchUp(vals, nd.catchUpMaxEntries, nd.catchUpMaxBytes)
	resp := &wire.CatchUpResp{Entries: vals}
	if needSnap && nd.snapshots != nil {
		if meta, ok := nd.snapshots(); ok {
			resp.HasSnapshot = true
			resp.Meta = meta
		}
	}
	e.send(from, resp)
}

// capCatchUp trims a catch-up response to the entry and (approximate) byte
// caps, always keeping at least one entry so a follow-up query makes
// progress.
func capCatchUp(vals []wire.DecidedValue, maxEntries, maxBytes int) []wire.DecidedValue {
	if len(vals) > maxEntries {
		vals = vals[:maxEntries]
	}
	total := 0
	for i, v := range vals {
		total += len(v.Value) + 16
		if total > maxBytes && i > 0 {
			return vals[:i]
		}
	}
	return vals
}

// handleCatchUpResp applies fetched decided values and surfaces a received
// snapshot for the two-phase install. The node does NOT fast-forward its log
// here: the cut may only be journaled once the snapshot is durably on disk,
// so the InstallSnapshot effect travels to the execution layer, which
// persists it and releases FastForward to every group (see servicemgr.go).
// pendingInstall suppresses re-surfacing the same snapshot from duplicate
// responses while that round-trip is in flight.
//
// A follow-up query for the remaining gap is issued immediately only when
// this response made progress (filled a missing instance). A useless
// response — the responder may simply not have the values, e.g. a
// just-elected leader behind the watermark we chased — and the install
// round-trip both wait for the caller's catch-up timer instead: re-querying
// synchronously would ping-pong query/response at network speed (a livelock
// the randomized-schedule property test reproduces).
func (nd *Node) handleCatchUpResp(m *wire.CatchUpResp, e *Effects) {
	nd.catchUpPending = false
	progress := false
	if m.HasSnapshot && m.Meta.GroupCount() == nd.groups {
		cut := wire.GroupCut(m.Meta.LastIncluded, nd.groups, nd.group)
		if cut > nd.log.Base() && cut > nd.pendingInstall {
			nd.pendingInstall = cut
			meta := m.Meta
			e.InstallSnapshot = &meta
		}
	}
	for _, dv := range m.Entries {
		if dv.ID < nd.log.Base() {
			continue
		}
		if entry := nd.log.Get(dv.ID); entry == nil || !entry.Decided {
			progress = true
		}
		nd.log.MarkDecided(dv.ID, dv.Value)
	}
	nd.emitDecisions(e)
	if progress {
		nd.maybeCatchUp(e)
	}
}

// FastForward advances the log past everything below cut, which an installed
// snapshot covers: covered entries are discarded, delivery resumes at cut,
// and stale open proposals below it are dropped with their retransmissions
// cancelled (their instances are already decided in the snapshot; keeping
// them could trip a below-base decide on a late Accept, and an uncancelled
// handle would re-broadcast the dead Propose forever). Acceptor state at or
// above cut is retained — the snapshot says nothing about those slots, and
// wiping a promised value there would violate Paxos quorum intersection
// (the merge stage fast-forwards healthy sibling groups whose logs hold
// live in-flight accepts). In the two-phase transferred-snapshot install
// this is the release step: it runs only after the snapshot is durably
// persisted, and it is the point where the cut reaches the group's journal.
// Decided entries from cut onward that became contiguous (e.g. catch-up
// values applied while the install was in flight) are emitted here. The
// caller must apply the returned Effects.
func (nd *Node) FastForward(cut wire.InstanceID) Effects {
	var e Effects
	nd.fastForward(cut, &e)
	nd.emitDecisions(&e)
	return e
}

func (nd *Node) fastForward(cut wire.InstanceID, e *Effects) {
	if cut <= nd.log.Base() {
		return
	}
	nd.log.CoverPrefix(cut)
	if nd.lastDelivered < cut {
		nd.lastDelivered = cut
	}
	if nd.pendingInstall <= cut {
		nd.pendingInstall = 0 // install round-trip completed
	}
	for id := range nd.open {
		if id < cut {
			delete(nd.open, id)
			e.CancelRetrans = append(e.CancelRetrans,
				RetransKey{Kind: RetransPropose, View: nd.view, ID: id})
		}
	}
}

// TruncateLog discards log entries below id (after the service snapshotted
// through id-1). Called by the owner thread on snapshot completion.
func (nd *Node) TruncateLog(id wire.InstanceID) {
	nd.log.TruncateBelow(id)
}

// emitDecisions appends all newly contiguous decisions to e, in log order.
func (nd *Node) emitDecisions(e *Effects) {
	for nd.lastDelivered < nd.log.FirstUndecided() {
		id := nd.lastDelivered
		if id < nd.log.Base() {
			// Covered by an installed snapshot; skip.
			nd.lastDelivered = nd.log.Base()
			continue
		}
		entry := nd.log.Get(id)
		e.Decisions = append(e.Decisions, Decision{ID: id, Value: entry.Value})
		nd.lastDelivered++
	}
}
