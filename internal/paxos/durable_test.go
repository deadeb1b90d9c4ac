package paxos

// Tests for the rule a journaling caller lives by: a vote leaves its
// acceptor only when it is durable, proposals and decisions never wait. The
// durable harness plays that caller: logs journal to an in-memory journal
// with an explicit sync point, votes (SendEffect.Vote) park until a sync
// covers them, and a crash throws away everything after the last sync — the
// journal's tail, the parked votes, the node — and restarts the node from
// what is left.

import (
	"bytes"
	"slices"
	"testing"

	"gosmr/internal/storage"
	"gosmr/internal/wire"
)

// jrec is one journal record: a promise ('v'), an accept ('a'), a decision
// ('d') or a cut ('c').
type jrec struct {
	kind     byte
	id       wire.InstanceID
	view     wire.View
	value    []byte
	hasValue bool
}

// testJournal is a storage.Journal whose records are durable only up to
// synced.
type testJournal struct {
	recs   []jrec
	synced int
}

func (j *testJournal) journalView(v wire.View) { j.recs = append(j.recs, jrec{kind: 'v', view: v}) }

func (j *testJournal) JournalAccept(id wire.InstanceID, view wire.View, value []byte) {
	j.recs = append(j.recs, jrec{kind: 'a', id: id, view: view, value: value})
}

func (j *testJournal) JournalDecide(id wire.InstanceID, value []byte, hasValue bool) {
	j.recs = append(j.recs, jrec{kind: 'd', id: id, value: value, hasValue: hasValue})
}

func (j *testJournal) JournalCut(cut wire.InstanceID) {
	j.recs = append(j.recs, jrec{kind: 'c', id: cut})
}

// recover drops the un-synced tail and rebuilds the log and the promised
// view from the rest, the way core's WAL replay does.
func (j *testJournal) recover() (*storage.Log, wire.View) {
	j.recs = j.recs[:j.synced]
	log := storage.NewLog()
	var view wire.View
	for _, r := range j.recs {
		switch r.kind {
		case 'v':
			view = max(view, r.view)
		case 'a':
			view = max(view, r.view)
			if r.id >= log.Base() {
				log.Accept(r.id, r.view, r.value)
			}
		case 'd':
			if r.id < log.Base() {
				continue
			}
			if r.hasValue {
				log.MarkDecided(r.id, r.value)
			} else if e := log.Get(r.id); e != nil && (e.AcceptedView != storage.NoView || e.Decided) {
				log.MarkDecided(r.id, nil)
			}
		case 'c':
			log.CoverPrefix(r.id)
		}
	}
	log.SetJournal(j)
	return log, view
}

// parkedVote is a vote waiting for the journal to be synced through pos.
type parkedVote struct {
	pos  int
	send SendEffect
}

func newDurableHarness(t *testing.T, n int, seed int64) *harness {
	h := newHarness(t, 0, seed) // no nodes yet: they boot from their journals
	h.n = n
	h.delivered = make([][]Decision, n)
	h.catchGen = make([]uint64, n)
	h.nodes = make([]*Node, n)
	h.journals = make([]*testJournal, n)
	h.parked = make([][]parkedVote, n)
	for i := range n {
		h.journals[i] = &testJournal{}
	}
	for i := range n {
		h.boot(i)
	}
	return h
}

// boot (re)starts node i from the durable part of its journal.
func (h *harness) boot(i int) {
	log, view := h.journals[i].recover()
	h.nodes[i] = NewNode(Options{ID: i, N: h.n, Window: 4, Log: log, View: view, DeferSelfVote: true})
	h.retrans[i] = make(map[RetransKey][]envelope)
	h.parked[i] = nil
	h.delivered[i] = nil // Start re-emits the recovered decided prefix
	h.catchGen[i] = 0
	h.apply(i, h.nodes[i].Start())
}

// crash kills node i between two events and restarts it at once; messages
// already on the wire stay there.
func (h *harness) crash(i int) { h.boot(i) }

func (h *harness) park(node int, s SendEffect) {
	h.parked[node] = append(h.parked[node], parkedVote{pos: len(h.journals[node].recs), send: s})
}

// unpark drops a parked reliable message whose retransmission was cancelled.
func (h *harness) unpark(node int, k RetransKey) {
	if h.journals == nil {
		return
	}
	kept := h.parked[node][:0]
	for _, p := range h.parked[node] {
		if p.send.Retrans == nil || *p.send.Retrans != k {
			kept = append(kept, p)
		}
	}
	h.parked[node] = kept
}

// sync makes node i's journal durable and lets the votes it covers leave.
func (h *harness) sync(i int) {
	j := h.journals[i]
	j.synced = len(j.recs)
	votes := h.parked[i]
	h.parked[i] = nil
	for _, p := range votes {
		h.post(i, p.send)
	}
}

func (h *harness) syncAll() {
	for i := range h.journals {
		h.sync(i)
	}
}

// take removes and returns the in-flight messages of one type from → to.
func (h *harness) take(from, to int, typ wire.MsgType) []envelope {
	var out []envelope
	kept := h.inflight[:0]
	for _, env := range h.inflight {
		if env.from == from && env.to == to && env.msg.Type() == typ {
			out = append(out, env)
		} else {
			kept = append(kept, env)
		}
	}
	h.inflight = kept
	return out
}

// settle syncs and delivers until nothing moves, dropping every message to
// or from the nodes in cut.
func (h *harness) settle(cut ...int) {
	for h.syncAll(); len(h.inflight) > 0; h.syncAll() {
		env := h.inflight[0]
		h.inflight = h.inflight[1:]
		if !slices.Contains(cut, env.from) && !slices.Contains(cut, env.to) {
			h.deliver(env)
		}
	}
}

func batchOf(seq uint64, payload string) []byte {
	return wire.EncodeBatch([]*wire.ClientRequest{{ClientID: 7, Seq: seq, Payload: []byte(payload)}})
}

// TestRestartedLeaderTakesFreshBallot replays the schedule that an ungated
// Propose opens: the leader of view w sends Propose(w, i, v) and dies before
// its own accept is durable; follower 1 holds v durably. The leader restarts
// in w without v, wins Phase 1 with follower 2 alone and proposes v' at i;
// follower 1 misses that Propose and then hears the watermark. Were the
// leader still in w, follower 1 would decide v (AcceptedView == view) against
// the quorum's v'. The harness fails on any two different decisions for one
// instance.
func TestRestartedLeaderTakesFreshBallot(t *testing.T) {
	h := newDurableHarness(t, 3, 1)
	h.settle()
	l := h.nodes[0]
	if !l.IsLeader() {
		t.Fatal("setup: node 0 does not lead")
	}
	w := l.View()

	v, v2 := batchOf(1, "v"), batchOf(2, "v'")
	e, ok := l.ProposeBatch(v)
	if !ok {
		t.Fatal("ProposeBatch refused")
	}
	h.apply(0, e)
	h.take(0, 2, wire.TPropose) // follower 2 never sees v
	for _, env := range h.take(0, 1, wire.TPropose) {
		h.deliver(env)
	}
	h.sync(1) // follower 1's accept of v is durable; its vote is on the wire
	h.take(1, 0, wire.TAccept)
	if got := h.nodes[1].Log().Get(0); got == nil || got.AcceptedView != w || !bytes.Equal(got.Value, v) {
		t.Fatalf("setup: follower 1 holds %+v, want v accepted in view %d", got, w)
	}

	// The leader dies with its accept of v (and its vote for it) un-synced.
	h.crash(0)
	l = h.nodes[0]
	if got := l.Log().Get(0); got != nil {
		t.Fatalf("setup: restarted leader still holds %+v at instance 0", got)
	}
	if l.View() != w {
		t.Fatalf("restarted leader recovered view %d, want its durable promise %d", l.View(), w)
	}
	h.settle(1) // follower 1 is unreachable while the leader re-establishes itself
	if !l.IsLeader() {
		t.Fatal("restarted leader did not re-establish itself with follower 2")
	}
	if l.View() <= w {
		t.Errorf("restarted leader leads view %d again, want a fresh ballot > %d", l.View(), w)
	}
	e, ok = l.ProposeBatch(v2)
	if !ok {
		t.Fatal("ProposeBatch refused after restart")
	}
	h.apply(0, e)
	h.settle(1) // the Propose of v' to follower 1 is lost
	if got := h.agreed[0]; !bytes.Equal(got, v2) {
		t.Fatalf("instance 0 decided %q with quorum {0, 2}, want v'", got)
	}

	// Follower 1 hears the watermark, then everything heals.
	h.deliver(envelope{from: 0, to: 1, msg: &wire.Heartbeat{View: l.View(), DecidedUpTo: l.DecidedUpTo()}})
	h.drain()
	for i := range h.nodes {
		if len(h.delivered[i]) != 1 || !bytes.Equal(h.delivered[i][0].Value, v2) {
			t.Errorf("node %d delivered %+v, want exactly v' at instance 0", i, h.delivered[i])
		}
	}
}

// TestPropertyDurableScheduleWithCrashes runs the randomized schedule over
// journal-backed nodes with deferred self-votes, random syncs and random
// crashes that lose the un-synced tail: agreement must hold across every
// incarnation of every node. Two seeds are pinned because each breaks
// agreement under one mutation of the rule: 1082 when a restarted leader
// leads its recovered view again, 1853 when the candidate's Prepare is not
// held as a vote.
func TestPropertyDurableScheduleWithCrashes(t *testing.T) {
	seeds := []int64{1082, 1853}
	for seed := int64(200); seed < 240 && !(testing.Short() && seed >= 210); seed++ {
		seeds = append(seeds, seed)
	}
	for _, seed := range seeds {
		runSchedule(t, newDurableHarness(t, 3, seed), seed, 2500)
	}
}

// TestDeferredSelfVote is the table for the leader's own vote under
// DeferSelfVote: it is one acceptor's vote among n, counted when the caller
// hands it back and under the same checks as a peer's.
func TestDeferredSelfVote(t *testing.T) {
	// lead returns node 0 of n leading view 0 (no journal: only the vote
	// accounting is under test) and the self-vote of one fresh proposal.
	lead := func(t *testing.T, n int) (*Node, *wire.Accept) {
		t.Helper()
		l := NewNode(Options{ID: 0, N: n, Window: 4, DeferSelfVote: true})
		l.Start()
		for p := 1; p <= n/2; p++ {
			l.HandleMessage(p, &wire.PrepareOK{View: 0})
		}
		if !l.IsLeader() {
			t.Fatal("setup: not leader")
		}
		e, ok := l.ProposeBatch(batchOf(1, "x"))
		if !ok {
			t.Fatal("setup: ProposeBatch refused")
		}
		if len(e.Decisions) != 0 {
			t.Fatalf("decided %+v inside the proposing call", e.Decisions)
		}
		var self *wire.Accept
		for _, s := range e.Sends {
			switch m := s.Msg.(type) {
			case *wire.Propose:
				if s.Vote || s.To != Broadcast || s.Retrans == nil {
					t.Errorf("Propose send = %+v, want an unparked reliable broadcast", s)
				}
			case *wire.Accept:
				if !s.Vote || s.To != 0 {
					t.Errorf("self-vote send = %+v, want a vote addressed to node 0", s)
				}
				self = m
			}
		}
		if self == nil {
			t.Fatal("no self-vote among the sends")
		}
		if l.SelfVotesPending() != 1 {
			t.Errorf("SelfVotesPending = %d, want 1", l.SelfVotesPending())
		}
		return l, self
	}
	decided := func(e Effects) int { return len(e.Decisions) }

	t.Run("self alone does not decide at n=3", func(t *testing.T) {
		l, self := lead(t, 3)
		if n := decided(l.HandleMessage(0, self)); n != 0 || l.DecidedUpTo() != 0 {
			t.Errorf("decided %d instances from the leader's vote alone", n)
		}
		if l.SelfVotesPending() != 0 {
			t.Errorf("SelfVotesPending = %d after the vote came back", l.SelfVotesPending())
		}
		if n := decided(l.HandleMessage(0, self)); n != 0 {
			t.Errorf("duplicate self-vote decided %d instances", n)
		}
	})
	t.Run("one follower alone does not decide at n=3", func(t *testing.T) {
		l, _ := lead(t, 3)
		if n := decided(l.HandleMessage(1, &wire.Accept{View: 0, ID: 0})); n != 0 || l.DecidedUpTo() != 0 {
			t.Errorf("decided %d instances from one follower's vote", n)
		}
	})
	t.Run("self plus one follower decides", func(t *testing.T) {
		l, self := lead(t, 3)
		l.HandleMessage(1, &wire.Accept{View: 0, ID: 0})
		if n := decided(l.HandleMessage(0, self)); n != 1 {
			t.Errorf("decided %d instances, want 1", n)
		}
	})
	t.Run("two followers decide with the self-vote pending", func(t *testing.T) {
		l, self := lead(t, 3)
		l.HandleMessage(1, &wire.Accept{View: 0, ID: 0})
		if n := decided(l.HandleMessage(2, &wire.Accept{View: 0, ID: 0})); n != 1 || l.DecidedUpTo() != 1 {
			t.Errorf("decided %d instances, want 1 from the two followers", n)
		}
		if l.SelfVotesPending() != 0 {
			t.Errorf("SelfVotesPending = %d for a decided instance", l.SelfVotesPending())
		}
		if n := decided(l.HandleMessage(0, self)); n != 0 {
			t.Errorf("late self-vote decided %d instances", n)
		}
	})
	t.Run("self-vote of an abandoned view is ignored", func(t *testing.T) {
		l, self := lead(t, 3)
		l.HandleMessage(1, &wire.Accept{View: 0, ID: 0})
		l.HandleMessage(1, &wire.Prepare{View: 1}) // node 1 takes over
		if n := decided(l.HandleMessage(0, self)); n != 0 || l.DecidedUpTo() != 0 {
			t.Errorf("self-vote from view 0 decided %d instances in view %d", n, l.View())
		}
	})
	t.Run("self-vote for a slot FastForward covered is ignored", func(t *testing.T) {
		l, self := lead(t, 3)
		l.HandleMessage(1, &wire.Accept{View: 0, ID: 0})
		l.FastForward(1)
		if n := decided(l.HandleMessage(0, self)); n != 0 {
			t.Errorf("self-vote for a covered slot decided %d instances", n)
		}
	})
	t.Run("n=1 decides exactly when its vote is released", func(t *testing.T) {
		l, self := lead(t, 1)
		if l.DecidedUpTo() != 0 {
			t.Fatal("single replica decided before its vote was durable")
		}
		if n := decided(l.HandleMessage(0, self)); n != 1 || l.DecidedUpTo() != 1 {
			t.Errorf("decided %d instances on release, want 1", n)
		}
	})
}

// TestSetTopologyHandoff pins the stop-the-group handoff: normally the node
// advances to BaseView, but when the old shape is already at or past it, a
// leader must not keep its view under a reread leader map — it campaigns in
// the next view it leads under the new shape, and a follower waits for it.
func TestSetTopologyHandoff(t *testing.T) {
	four := func(base wire.View) *wire.Topology {
		return &wire.Topology{Epoch: 1, BaseView: base, Groups: 1, Peers: []string{"a", "b", "c", "d"}}
	}
	t.Run("below BaseView", func(t *testing.T) {
		l, _, _ := establish3(t, 4)
		e := l.SetTopology(four(4)) // leader(4) = 0 under the new map
		if l.View() != 4 || !l.Preparing() || !e.ViewChanged {
			t.Errorf("view %d preparing %v, want a campaign in BaseView 4", l.View(), l.Preparing())
		}
	})
	t.Run("leader already past BaseView", func(t *testing.T) {
		l := NewNode(Options{ID: 0, N: 3, View: 6})
		l.Start()
		l.HandleMessage(1, &wire.PrepareOK{View: 6})
		if !l.IsLeader() {
			t.Fatal("setup: not leading view 6")
		}
		e := l.SetTopology(four(4)) // leader(6) = 2 under the new map
		if l.View() != 8 || !l.Preparing() || l.IsLeader() || !e.ViewChanged {
			t.Errorf("view %d preparing %v leading %v, want a campaign in view 8", l.View(), l.Preparing(), l.IsLeader())
		}
		if got := sendsByType(e); got[wire.TPrepare] != 1 {
			t.Errorf("sends = %v, want one Prepare", got)
		}
	})
	t.Run("follower already past BaseView", func(t *testing.T) {
		f := NewNode(Options{ID: 1, N: 3, View: 6})
		if e := f.SetTopology(four(4)); f.View() != 6 || e.ViewChanged || len(e.Sends) != 0 {
			t.Errorf("follower moved to view %d with sends %v, want it to stay in 6", f.View(), e.Sends)
		}
		if f.N() != 4 {
			t.Errorf("N = %d after SetTopology, want 4", f.N())
		}
	})
}
