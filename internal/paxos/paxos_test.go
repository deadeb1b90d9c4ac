package paxos

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"gosmr/internal/wire"
)

// collect groups a broadcast effect's sends by destination for assertions.
func sendsByType(e Effects) map[wire.MsgType]int {
	m := make(map[wire.MsgType]int)
	for _, s := range e.Sends {
		m[s.Msg.Type()]++
	}
	return m
}

func TestNewNodeValidation(t *testing.T) {
	for _, bad := range []Options{{ID: 0, N: 0}, {ID: 3, N: 3}, {ID: -1, N: 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewNode(%+v) did not panic", bad)
				}
			}()
			NewNode(bad)
		}()
	}
	nd := NewNode(Options{ID: 0, N: 3})
	if nd.window != 10 {
		t.Errorf("default window = %d, want 10", nd.window)
	}
}

// TestNodeLeaderFromN pins the topology a node built from {ID, N} runs in:
// hole-free, so Topology.Leader is the classic v mod n map.
func TestNodeLeaderFromN(t *testing.T) {
	tests := []struct {
		v    wire.View
		n    int
		want int
	}{
		{0, 3, 0}, {1, 3, 1}, {2, 3, 2}, {3, 3, 0}, {7, 5, 2},
	}
	for _, tt := range tests {
		topo := NewNode(Options{ID: 0, N: tt.n}).Topology()
		if topo.Epoch != 0 || topo.N() != tt.n || topo.Quorum() != tt.n/2+1 {
			t.Fatalf("N=%d: topology %+v is not hole-free epoch 0", tt.n, topo)
		}
		if got := topo.Leader(tt.v); got != tt.want {
			t.Errorf("Leader(%d) at n=%d = %d, want %d", tt.v, tt.n, got, tt.want)
		}
	}
}

func TestStartLeaderSendsPrepare(t *testing.T) {
	nd := NewNode(Options{ID: 0, N: 3})
	e := nd.Start()
	if !nd.Preparing() {
		t.Error("leader of view 0 not preparing after Start")
	}
	if got := sendsByType(e); got[wire.TPrepare] != 1 {
		t.Errorf("sends = %v, want one Prepare broadcast", got)
	}
	if e.Sends[0].To != Broadcast || e.Sends[0].Retrans == nil {
		t.Errorf("Prepare send = %+v, want reliable broadcast", e.Sends[0])
	}
	// Non-leader does nothing on Start.
	nd1 := NewNode(Options{ID: 1, N: 3})
	if e := nd1.Start(); len(e.Sends) != 0 || nd1.Preparing() {
		t.Errorf("follower Start sent %v", e.Sends)
	}
}

func TestLeadershipEstablishment(t *testing.T) {
	nd := NewNode(Options{ID: 0, N: 3})
	nd.Start()
	e := nd.HandleMessage(1, &wire.PrepareOK{View: 0})
	if !nd.IsLeader() {
		t.Fatal("not leader after majority PrepareOK")
	}
	if !e.ViewChanged {
		t.Error("ViewChanged not signalled on leadership establishment")
	}
	found := false
	for _, k := range e.CancelRetrans {
		if k.Kind == RetransPrepare {
			found = true
		}
	}
	if !found {
		t.Error("Prepare retransmission not cancelled")
	}
	// Duplicate PrepareOK is harmless.
	if e := nd.HandleMessage(1, &wire.PrepareOK{View: 0}); len(e.Sends) != 0 {
		t.Errorf("duplicate PrepareOK produced sends: %v", e.Sends)
	}
}

// establishLeader returns a 3-node set with node 0 leading view 0.
func establish3(t *testing.T, window int) (*Node, *Node, *Node) {
	t.Helper()
	l := NewNode(Options{ID: 0, N: 3, Window: window})
	f1 := NewNode(Options{ID: 1, N: 3, Window: window})
	f2 := NewNode(Options{ID: 2, N: 3, Window: window})
	e := l.Start()
	// Deliver Prepare to followers, PrepareOKs back.
	for _, s := range e.Sends {
		e1 := f1.HandleMessage(0, s.Msg)
		e2 := f2.HandleMessage(0, s.Msg)
		for _, r := range e1.Sends {
			l.HandleMessage(1, r.Msg)
		}
		for _, r := range e2.Sends {
			l.HandleMessage(2, r.Msg)
		}
	}
	if !l.IsLeader() {
		t.Fatal("setup: node 0 failed to establish leadership")
	}
	return l, f1, f2
}

func TestProposeDecideHappyPath(t *testing.T) {
	l, f1, f2 := establish3(t, 4)
	value := wire.EncodeBatch([]*wire.ClientRequest{{ClientID: 9, Seq: 1, Payload: []byte("x")}})
	e, ok := l.ProposeBatch(value)
	if !ok {
		t.Fatal("ProposeBatch refused")
	}
	if l.InFlight() != 1 {
		t.Errorf("InFlight = %d, want 1", l.InFlight())
	}
	var proposeMsg wire.Message
	for _, s := range e.Sends {
		if s.Msg.Type() == wire.TPropose {
			proposeMsg = s.Msg
			if s.Retrans == nil {
				t.Error("Propose not registered for retransmission")
			}
		}
	}
	if proposeMsg == nil {
		t.Fatal("no Propose broadcast")
	}
	// Follower 1 accepts.
	e1 := f1.HandleMessage(0, proposeMsg)
	if got := sendsByType(e1); got[wire.TAccept] != 1 {
		t.Fatalf("follower sends = %v, want one Accept", got)
	}
	if e1.Sends[0].To != 0 {
		t.Errorf("Accept sent to %d, want leader 0", e1.Sends[0].To)
	}
	// Leader decides on first Accept (self + f1 = majority of 3).
	e = l.HandleMessage(1, e1.Sends[0].Msg)
	if len(e.Decisions) != 1 || e.Decisions[0].ID != 0 || !bytes.Equal(e.Decisions[0].Value, value) {
		t.Fatalf("decisions = %+v, want instance 0 with the proposed value", e.Decisions)
	}
	if l.InFlight() != 0 {
		t.Errorf("InFlight after decide = %d, want 0", l.InFlight())
	}
	if l.DecidedUpTo() != 1 {
		t.Errorf("DecidedUpTo = %d, want 1", l.DecidedUpTo())
	}
	// Late Accept from f2 is ignored quietly.
	e2 := f2.HandleMessage(0, proposeMsg)
	if e := l.HandleMessage(2, e2.Sends[0].Msg); len(e.Decisions) != 0 {
		t.Errorf("late Accept produced decisions: %v", e.Decisions)
	}
}

func TestFollowerLearnsViaWatermark(t *testing.T) {
	l, f1, _ := establish3(t, 4)
	v1 := wire.EncodeBatch([]*wire.ClientRequest{{ClientID: 1, Seq: 1}})
	e, _ := l.ProposeBatch(v1)
	prop1 := e.Sends[0].Msg
	e1 := f1.HandleMessage(0, prop1)
	l.HandleMessage(1, e1.Sends[0].Msg) // decided at leader
	// Next proposal piggybacks DecidedUpTo = 1.
	v2 := wire.EncodeBatch([]*wire.ClientRequest{{ClientID: 1, Seq: 2}})
	e, _ = l.ProposeBatch(v2)
	prop2 := e.Sends[0].Msg.(*wire.Propose)
	if prop2.DecidedUpTo != 1 {
		t.Fatalf("DecidedUpTo = %d, want 1", prop2.DecidedUpTo)
	}
	e1 = f1.HandleMessage(0, prop2)
	if len(e1.Decisions) != 1 || e1.Decisions[0].ID != 0 || !bytes.Equal(e1.Decisions[0].Value, v1) {
		t.Fatalf("follower decisions = %+v, want instance 0", e1.Decisions)
	}
	// Heartbeat carries the watermark too.
	e1 = f1.HandleMessage(0, &wire.Heartbeat{View: 0, DecidedUpTo: 1})
	if len(e1.Decisions) != 0 {
		t.Errorf("duplicate watermark redelivered decisions: %v", e1.Decisions)
	}
}

func TestWindowLimit(t *testing.T) {
	l, _, _ := establish3(t, 2)
	for i := range 2 {
		if _, ok := l.ProposeBatch(wire.EncodeBatch(nil)); !ok {
			t.Fatalf("proposal %d refused below window", i)
		}
	}
	if _, ok := l.ProposeBatch(wire.EncodeBatch(nil)); ok {
		t.Fatal("proposal accepted beyond window")
	}
	if l.WindowOpen() {
		t.Error("WindowOpen with full pipeline")
	}
}

func TestNonLeaderCannotPropose(t *testing.T) {
	_, f1, _ := establish3(t, 4)
	if _, ok := f1.ProposeBatch(wire.EncodeBatch(nil)); ok {
		t.Error("follower accepted a proposal")
	}
}

func TestViewChangePreservesAcceptedValue(t *testing.T) {
	l, f1, f2 := establish3(t, 4)
	value := wire.EncodeBatch([]*wire.ClientRequest{{ClientID: 5, Seq: 5, Payload: []byte("keep-me")}})
	e, _ := l.ProposeBatch(value)
	// Only f1 receives the proposal; the "crashing" leader's decision never
	// completes.
	prop := e.Sends[0].Msg
	f1.HandleMessage(0, prop)
	// f1 and f2 suspect the leader; view 1's leader is f1.
	e1 := f1.OnSuspect(0)
	if !f1.Preparing() {
		t.Fatal("f1 not preparing after suspicion of view 0")
	}
	var prepare wire.Message
	for _, s := range e1.Sends {
		if s.Msg.Type() == wire.TPrepare {
			prepare = s.Msg
		}
	}
	if prepare == nil {
		t.Fatal("no Prepare from new candidate")
	}
	e2 := f2.OnSuspect(0)
	if len(e2.Sends) != 0 {
		t.Errorf("f2 sent on suspicion: %v", e2.Sends)
	}
	if f2.View() != 1 {
		t.Errorf("f2 view = %d, want 1", f2.View())
	}
	// f2 answers the Prepare; with f1's own state that is a majority.
	e2 = f2.HandleMessage(1, prepare)
	var reproposed *wire.Propose
	for _, r := range e2.Sends {
		e1 = f1.HandleMessage(2, r.Msg)
		for _, s := range e1.Sends {
			if p, ok := s.Msg.(*wire.Propose); ok && p.ID == 0 {
				reproposed = p
			}
		}
	}
	if !f1.IsLeader() {
		t.Fatal("f1 did not establish leadership in view 1")
	}
	if reproposed == nil {
		t.Fatal("instance 0 not re-proposed in view 1")
	}
	if !bytes.Equal(reproposed.Value, value) {
		t.Fatalf("re-proposed value = %q, want the accepted value", reproposed.Value)
	}
	// Complete the decision: f2 accepts, f1 decides.
	e2 = f2.HandleMessage(1, reproposed)
	var decided []Decision
	for _, r := range e2.Sends {
		ef := f1.HandleMessage(2, r.Msg)
		decided = append(decided, ef.Decisions...)
	}
	if len(decided) != 1 || !bytes.Equal(decided[0].Value, value) {
		t.Fatalf("decisions after view change = %+v", decided)
	}
	// The deposed leader follows the new view upon seeing its Propose.
	el := l.HandleMessage(1, reproposed)
	if l.View() != 1 || l.IsLeader() {
		t.Errorf("old leader view=%d leading=%v, want view 1 follower", l.View(), l.IsLeader())
	}
	if !el.ViewChanged {
		t.Error("old leader did not signal ViewChanged")
	}
}

func TestNoOpGapFilling(t *testing.T) {
	l, f1, f2 := establish3(t, 8)
	// Propose instances 0 and 1; only instance 1 reaches f1.
	_, _ = l.ProposeBatch(wire.EncodeBatch([]*wire.ClientRequest{{ClientID: 1, Seq: 1}}))
	e2, _ := l.ProposeBatch(wire.EncodeBatch([]*wire.ClientRequest{{ClientID: 1, Seq: 2}}))
	f1.HandleMessage(0, e2.Sends[0].Msg)
	// View change to f1: instance 0 was never seen by {f1, f2}, so it must
	// be filled with a no-op; instance 1 must be re-proposed.
	e := f1.OnSuspect(0)
	f2.OnSuspect(0)
	var prepare wire.Message
	for _, s := range e.Sends {
		prepare = s.Msg
	}
	eResp := f2.HandleMessage(1, prepare)
	proposals := make(map[wire.InstanceID]*wire.Propose)
	for _, r := range eResp.Sends {
		ef := f1.HandleMessage(2, r.Msg)
		for _, s := range ef.Sends {
			if p, ok := s.Msg.(*wire.Propose); ok {
				proposals[p.ID] = p
			}
		}
	}
	if len(proposals) != 2 {
		t.Fatalf("re-proposals = %v, want instances 0 and 1", proposals)
	}
	noop, err := wire.DecodeBatch(proposals[0].Value)
	if err != nil || len(noop) != 0 {
		t.Errorf("instance 0 value = %v (err %v), want empty no-op batch", noop, err)
	}
	reqs, err := wire.DecodeBatch(proposals[1].Value)
	if err != nil || len(reqs) != 1 || reqs[0].Seq != 2 {
		t.Errorf("instance 1 value = %+v (err %v), want the view-0 batch", reqs, err)
	}
}

func TestCatchUpFlow(t *testing.T) {
	l, f1, f2 := establish3(t, 8)
	// Decide instances 0..2 with f1 only; f2 misses everything.
	var lastProp *wire.Propose
	for i := range 3 {
		val := wire.EncodeBatch([]*wire.ClientRequest{{ClientID: 1, Seq: uint64(i)}})
		e, _ := l.ProposeBatch(val)
		lastProp = e.Sends[0].Msg.(*wire.Propose)
		e1 := f1.HandleMessage(0, lastProp)
		l.HandleMessage(1, e1.Sends[0].Msg)
	}
	if l.DecidedUpTo() != 3 {
		t.Fatalf("leader DecidedUpTo = %d, want 3", l.DecidedUpTo())
	}
	// f2 now sees a heartbeat with the watermark: it has gaps and must ask
	// for catch-up.
	e2 := f2.HandleMessage(0, &wire.Heartbeat{View: 0, DecidedUpTo: 3})
	if e2.CatchUp == nil {
		t.Fatal("no catch-up query despite gaps")
	}
	if e2.CatchUp.From != 0 || e2.CatchUp.To != 3 {
		t.Errorf("catch-up range = [%d,%d), want [0,3)", e2.CatchUp.From, e2.CatchUp.To)
	}
	// A second watermark does not duplicate the query.
	if e := f2.HandleMessage(0, &wire.Heartbeat{View: 0, DecidedUpTo: 3}); e.CatchUp != nil {
		t.Error("duplicate catch-up query while one is pending")
	}
	// Leader answers; f2 delivers everything in order.
	el := l.HandleMessage(2, e2.CatchUp)
	if len(el.Sends) != 1 {
		t.Fatalf("leader catch-up sends = %d, want 1", len(el.Sends))
	}
	resp := el.Sends[0].Msg.(*wire.CatchUpResp)
	if len(resp.Entries) != 3 {
		t.Fatalf("catch-up entries = %d, want 3", len(resp.Entries))
	}
	ef := f2.HandleMessage(0, resp)
	if len(ef.Decisions) != 3 {
		t.Fatalf("f2 decisions = %d, want 3", len(ef.Decisions))
	}
	for i, d := range ef.Decisions {
		if d.ID != wire.InstanceID(i) {
			t.Errorf("decision %d has ID %d", i, d.ID)
		}
	}
	// CatchUpTimeout with nothing missing is a no-op.
	if e := f2.CatchUpTimeout(e2.CatchUpGen); e.CatchUp != nil {
		t.Error("CatchUpTimeout re-queried with nothing missing")
	}
}

func TestCatchUpTimeoutRearms(t *testing.T) {
	_, _, f2 := establish3(t, 8)
	e := f2.HandleMessage(0, &wire.Heartbeat{View: 0, DecidedUpTo: 2})
	if e.CatchUp == nil {
		t.Fatal("no catch-up query")
	}
	// The query was lost; the timeout must re-issue it.
	e = f2.CatchUpTimeout(e.CatchUpGen)
	if e.CatchUp == nil {
		t.Fatal("CatchUpTimeout did not re-issue the query")
	}
}

func TestCatchUpTimeoutGenerationChecked(t *testing.T) {
	l, f1, f2 := establish3(t, 8)
	val := wire.EncodeBatch([]*wire.ClientRequest{{ClientID: 1, Seq: 1}})
	e, _ := l.ProposeBatch(val)
	e1 := f1.HandleMessage(0, e.Sends[0].Msg.(*wire.Propose))
	l.HandleMessage(1, e1.Sends[0].Msg)

	// f2 misses the instance and issues query generation g1.
	eq := f2.HandleMessage(0, &wire.Heartbeat{View: 0, DecidedUpTo: 1})
	if eq.CatchUp == nil {
		t.Fatal("no catch-up query")
	}
	g1 := eq.CatchUpGen
	// The response lands (useless: no entries), clearing the pending query.
	f2.HandleMessage(0, &wire.CatchUpResp{})
	// A stale timeout for g1 fired between response delivery and now — but a
	// fresh watermark already re-armed a NEW query g2 in the meantime.
	e2 := f2.HandleMessage(0, &wire.Heartbeat{View: 0, DecidedUpTo: 1})
	if e2.CatchUp == nil {
		t.Fatal("no re-query after useless response + watermark")
	}
	g2 := e2.CatchUpGen
	if g2 == g1 {
		t.Fatalf("generations not distinct: %d", g1)
	}
	// The stale g1 timeout must be a no-op — no duplicate query alongside g2.
	if e := f2.CatchUpTimeout(g1); e.CatchUp != nil {
		t.Error("stale catch-up timeout issued a duplicate query")
	}
	// The live g2 timeout still re-arms.
	if e := f2.CatchUpTimeout(g2); e.CatchUp == nil {
		t.Error("live catch-up timeout did not re-issue the query")
	}
}

// TestCatchUpRespCapPaginates pins the per-response entry cap: a tiny cap
// forces the responder to answer a wide gap in chunks, and the requester's
// progress-gated follow-up queries page through the whole range without ever
// receiving an oversized response.
func TestCatchUpRespCapPaginates(t *testing.T) {
	const capN = 2
	l := NewNode(Options{ID: 0, N: 3, Window: 16, CatchUpMaxEntries: capN})
	f1 := NewNode(Options{ID: 1, N: 3})
	f2 := NewNode(Options{ID: 2, N: 3})
	e := l.Start()
	for _, s := range e.Sends {
		for _, r := range f1.HandleMessage(0, s.Msg).Sends {
			l.HandleMessage(1, r.Msg)
		}
	}
	const n = 7
	for i := range n {
		e, _ := l.ProposeBatch(wire.EncodeBatch([]*wire.ClientRequest{{ClientID: 1, Seq: uint64(i + 1)}}))
		e1 := f1.HandleMessage(0, e.Sends[0].Msg)
		l.HandleMessage(1, e1.Sends[0].Msg)
	}
	eq := f2.HandleMessage(0, &wire.Heartbeat{View: 0, DecidedUpTo: n})
	if eq.CatchUp == nil {
		t.Fatal("no catch-up query")
	}
	rounds := 0
	var decided int
	for q := eq.CatchUp; q != nil; {
		rounds++
		if rounds > n {
			t.Fatal("pagination did not terminate")
		}
		el := l.HandleMessage(2, q)
		resp := el.Sends[0].Msg.(*wire.CatchUpResp)
		if len(resp.Entries) > capN {
			t.Fatalf("response carries %d entries, cap is %d", len(resp.Entries), capN)
		}
		ef := f2.HandleMessage(0, resp)
		decided += len(ef.Decisions)
		q = ef.CatchUp // progress-gated follow-up for the remaining gap
	}
	if decided != n {
		t.Fatalf("paginated catch-up delivered %d decisions, want %d", decided, n)
	}
	if got, want := rounds, (n+capN-1)/capN; got != want {
		t.Errorf("pagination took %d rounds, want %d", got, want)
	}
}

// TestCatchUpByteCapKeepsProgress pins the byte cap's progress guarantee:
// even when a single entry exceeds the byte budget, the response still
// carries it (one entry minimum), so pagination cannot wedge.
func TestCatchUpByteCapKeepsProgress(t *testing.T) {
	l := NewNode(Options{ID: 0, N: 3, Window: 16, CatchUpMaxBytes: 8})
	f1 := NewNode(Options{ID: 1, N: 3})
	e := l.Start()
	for _, s := range e.Sends {
		for _, r := range f1.HandleMessage(0, s.Msg).Sends {
			l.HandleMessage(1, r.Msg)
		}
	}
	big := make([]byte, 100)
	for i := range 3 {
		e, _ := l.ProposeBatch(wire.EncodeBatch([]*wire.ClientRequest{{ClientID: 1, Seq: uint64(i + 1), Payload: big}}))
		e1 := f1.HandleMessage(0, e.Sends[0].Msg)
		l.HandleMessage(1, e1.Sends[0].Msg)
	}
	el := l.HandleMessage(2, &wire.CatchUpQuery{From: 0, To: 3})
	resp := el.Sends[0].Msg.(*wire.CatchUpResp)
	if len(resp.Entries) != 1 {
		t.Fatalf("byte-capped response carries %d entries, want exactly 1", len(resp.Entries))
	}
	if resp.Entries[0].ID != 0 {
		t.Errorf("capped response starts at %d, want 0", resp.Entries[0].ID)
	}
}

// TestCatchUpServedFromColdStore pins catch-up tier 2: a gap below the
// in-memory truncation base that the cold store (the WAL) covers is served
// as plain decided values — no snapshot rides the response.
func TestCatchUpServedFromColdStore(t *testing.T) {
	vals := map[wire.InstanceID][]byte{}
	cold := func(from, to wire.InstanceID, maxEntries int) ([]wire.DecidedValue, bool) {
		var out []wire.DecidedValue
		for id := from; id < to && len(out) < maxEntries; id++ {
			v, ok := vals[id]
			if !ok {
				return nil, false
			}
			out = append(out, wire.DecidedValue{ID: id, Value: v})
		}
		return out, true
	}
	meta := wire.SnapshotMeta{LastIncluded: 4, TotalBytes: 5}
	l := NewNode(Options{
		ID: 0, N: 3, Window: 16,
		Snapshots:   func() (wire.SnapshotMeta, bool) { return meta, true },
		ColdDecided: cold,
	})
	f1 := NewNode(Options{ID: 1, N: 3})
	e := l.Start()
	for _, s := range e.Sends {
		for _, r := range f1.HandleMessage(0, s.Msg).Sends {
			l.HandleMessage(1, r.Msg)
		}
	}
	for i := range 6 {
		val := wire.EncodeBatch([]*wire.ClientRequest{{ClientID: 1, Seq: uint64(i + 1)}})
		e, _ := l.ProposeBatch(val)
		e1 := f1.HandleMessage(0, e.Sends[0].Msg)
		l.HandleMessage(1, e1.Sends[0].Msg)
		vals[wire.InstanceID(i)] = val // "journaled" copy
	}
	l.TruncateLog(5) // memory now retains only instance 5

	// Gap [2, 6): [2,5) comes from the cold store, [5,6) from memory —
	// covered end to end, so no state transfer is needed.
	el := l.HandleMessage(2, &wire.CatchUpQuery{From: 2, To: 6})
	resp := el.Sends[0].Msg.(*wire.CatchUpResp)
	if resp.HasSnapshot {
		t.Fatal("snapshot attached although the cold store covers the gap")
	}
	if len(resp.Entries) != 4 || resp.Entries[0].ID != 2 || resp.Entries[3].ID != 5 {
		t.Fatalf("cold+memory entries = %+v, want instances 2..5", resp.Entries)
	}

	// A gap reaching below the cold store's retention still falls back to
	// state transfer.
	delete(vals, 0)
	el = l.HandleMessage(2, &wire.CatchUpQuery{From: 0, To: 6})
	resp = el.Sends[0].Msg.(*wire.CatchUpResp)
	if !resp.HasSnapshot || resp.Meta.LastIncluded != 4 {
		t.Fatalf("no snapshot fallback below cold retention: %+v", resp)
	}
}

func TestCatchUpWithSnapshot(t *testing.T) {
	meta := wire.SnapshotMeta{LastIncluded: 4, TotalBytes: 7}
	l := NewNode(Options{ID: 0, N: 3, Snapshots: func() (wire.SnapshotMeta, bool) { return meta, true }})
	f1 := NewNode(Options{ID: 1, N: 3})
	e := l.Start()
	for _, s := range e.Sends {
		for _, r := range f1.HandleMessage(0, s.Msg).Sends {
			l.HandleMessage(1, r.Msg)
		}
	}
	// Decide 0..5 at the leader, then truncate through 4.
	for i := range 6 {
		e, _ := l.ProposeBatch(wire.EncodeBatch([]*wire.ClientRequest{{ClientID: 1, Seq: uint64(i)}}))
		prop := e.Sends[0].Msg
		e1 := f1.HandleMessage(0, prop)
		l.HandleMessage(1, e1.Sends[0].Msg)
	}
	l.TruncateLog(5)
	if l.Log().Base() != 5 {
		t.Fatalf("log base = %d, want 5", l.Log().Base())
	}
	// A fresh replica asks for everything.
	el := l.HandleMessage(2, &wire.CatchUpQuery{From: 0, To: 6})
	resp := el.Sends[0].Msg.(*wire.CatchUpResp)
	if !resp.HasSnapshot || resp.Meta.LastIncluded != 4 {
		t.Fatalf("catch-up response = %+v, want snapshot meta through 4", resp)
	}
	if len(resp.Entries) != 1 || resp.Entries[0].ID != 5 {
		t.Fatalf("entries = %+v, want only instance 5", resp.Entries)
	}
	// Install on a lagging node. Phase 1: the snapshot is only SURFACED —
	// the node must not fast-forward (or journal a cut) before the
	// execution layer has the snapshot durably on disk, so no decisions can
	// be emitted yet and the log base must not move.
	f2 := NewNode(Options{ID: 2, N: 3})
	ef := f2.HandleMessage(0, resp)
	if ef.InstallSnapshot == nil || ef.InstallSnapshot.LastIncluded != 4 {
		t.Fatalf("InstallSnapshot effect = %+v", ef.InstallSnapshot)
	}
	if f2.Log().Base() != 0 {
		t.Fatalf("log base = %d before install release, want 0 (persist-before-cut)", f2.Log().Base())
	}
	if len(ef.Decisions) != 0 {
		t.Fatalf("decisions before install release = %+v, want none", ef.Decisions)
	}
	// A duplicate response must not re-surface the same pending install.
	if ef2 := f2.HandleMessage(0, resp); ef2.InstallSnapshot != nil {
		t.Fatal("duplicate response re-surfaced the pending install")
	}
	// Phase 2: the execution layer persisted the snapshot and releases the
	// fast-forward. Only now does the log jump — and the catch-up value
	// applied above the cut (instance 5) is emitted.
	ef = f2.FastForward(5)
	if f2.Log().Base() != 5 {
		t.Fatalf("log base = %d after release, want 5", f2.Log().Base())
	}
	if len(ef.Decisions) != 1 || ef.Decisions[0].ID != 5 {
		t.Fatalf("decisions after release = %+v, want instance 5 only", ef.Decisions)
	}
	if f2.DecidedUpTo() != 6 {
		t.Errorf("DecidedUpTo = %d, want 6", f2.DecidedUpTo())
	}
	// With the install complete, a fresh snapshot response for the same cut
	// is stale (base already past it) and surfaces nothing.
	if ef3 := f2.HandleMessage(0, resp); ef3.InstallSnapshot != nil {
		t.Error("stale snapshot re-surfaced after install completed")
	}
}

func TestStaleAndForgedMessagesIgnored(t *testing.T) {
	l, f1, _ := establish3(t, 4)
	// Move f1 to view 3 (leader = 0 via 3 mod 3).
	f1.OnSuspect(0)
	f1.OnSuspect(1)
	f1.OnSuspect(2)
	if f1.View() != 3 {
		t.Fatalf("f1 view = %d, want 3", f1.View())
	}
	// Stale propose from view 0 is ignored.
	if e := f1.HandleMessage(0, &wire.Propose{View: 0, ID: 9, Value: nil}); len(e.Sends) != 0 {
		t.Errorf("stale Propose answered: %v", e.Sends)
	}
	// Propose claiming view 1 from replica 2 (leader(1) = 1, not 2): forged.
	if e := f1.HandleMessage(2, &wire.Propose{View: 4, ID: 9}); len(e.Sends) != 0 {
		t.Errorf("forged Propose answered: %v", e.Sends)
	}
	// Prepare from non-leader of the view is ignored.
	if e := l.HandleMessage(2, &wire.Prepare{View: 4}); len(e.Sends) != 0 {
		t.Errorf("forged Prepare answered: %v", e.Sends)
	}
	// Accept for unknown instance is ignored.
	if e := l.HandleMessage(1, &wire.Accept{View: 0, ID: 999}); len(e.Decisions) != 0 {
		t.Errorf("unknown Accept decided: %v", e.Decisions)
	}
	// Stale suspicion is ignored.
	if e := f1.OnSuspect(0); e.ViewChanged {
		t.Error("stale suspicion changed view")
	}
}

func TestSingleReplicaDecidesImmediately(t *testing.T) {
	nd := NewNode(Options{ID: 0, N: 1, Window: 4})
	e := nd.Start()
	if !nd.IsLeader() {
		t.Fatal("single replica not leader after Start")
	}
	if len(e.Sends) != 0 {
		t.Errorf("single replica sent: %v", e.Sends)
	}
	val := wire.EncodeBatch([]*wire.ClientRequest{{ClientID: 1, Seq: 1}})
	e, ok := nd.ProposeBatch(val)
	if !ok {
		t.Fatal("proposal refused")
	}
	if len(e.Decisions) != 1 || !bytes.Equal(e.Decisions[0].Value, val) {
		t.Fatalf("decisions = %+v, want immediate decision", e.Decisions)
	}
}

func TestPrepareOKWithDecidedEntries(t *testing.T) {
	// A PrepareOK advertising a decided instance teaches the candidate the
	// decision directly.
	f1 := NewNode(Options{ID: 1, N: 3})
	f1.OnSuspect(0) // candidate for view 1
	val := wire.EncodeBatch([]*wire.ClientRequest{{ClientID: 2, Seq: 2}})
	e := f1.HandleMessage(2, &wire.PrepareOK{View: 1, Entries: []wire.InstanceState{
		{ID: 0, AcceptedView: 0, Decided: true, Value: val},
	}})
	if !f1.IsLeader() {
		t.Fatal("candidate did not finish with majority")
	}
	if len(e.Decisions) != 1 || !bytes.Equal(e.Decisions[0].Value, val) {
		t.Fatalf("decisions = %+v", e.Decisions)
	}
	// The decided instance must not be re-proposed.
	for _, s := range e.Sends {
		if p, ok := s.Msg.(*wire.Propose); ok && p.ID == 0 {
			t.Error("decided instance 0 re-proposed")
		}
	}
}

func TestHigherViewPrepareOverridesCandidate(t *testing.T) {
	// Node 1 is candidate for view 1; a Prepare for view 4 (leader 1 too)
	// from itself cannot happen, but a Prepare for view 3 from node 0 must
	// demote it to follower of view 3.
	f1 := NewNode(Options{ID: 1, N: 3})
	f1.OnSuspect(0)
	if !f1.Preparing() {
		t.Fatal("not preparing")
	}
	e := f1.HandleMessage(0, &wire.Prepare{View: 3, FirstUnstable: 0})
	if f1.Preparing() || f1.View() != 3 {
		t.Errorf("after higher Prepare: preparing=%v view=%d, want follower of 3", f1.Preparing(), f1.View())
	}
	if got := sendsByType(e); got[wire.TPrepareOK] != 1 {
		t.Errorf("sends = %v, want one PrepareOK", got)
	}
}

// ---------------------------------------------------------------------------
// Randomized schedule harness: delivers messages in random order with drops,
// duplications and leader suspicions, then checks the fundamental SMR safety
// properties.

type envelope struct {
	from, to int
	msg      wire.Message
}

type harness struct {
	t        *testing.T
	rng      *rand.Rand
	n        int
	nodes    []*Node
	inflight []envelope
	retrans  map[int]map[RetransKey][]envelope
	// catchGen[i] is node i's latest issued catch-up query generation — what
	// the caller's response timer would carry back to CatchUpTimeout.
	catchGen []uint64
	// delivered[i] is the ordered decision list of node i.
	delivered [][]Decision
	// agreed maps instance -> first value seen decided, for agreement checks.
	agreed map[wire.InstanceID][]byte
	// journals and parked are set by newDurableHarness (durable_test.go):
	// node i's log journals to journals[i], and its votes wait in parked[i]
	// until a sync covers them. Nil for the in-memory harness.
	journals []*testJournal
	parked   [][]parkedVote
}

func newHarness(t *testing.T, n int, seed int64) *harness {
	h := &harness{
		t:         t,
		rng:       rand.New(rand.NewSource(seed)),
		n:         n,
		delivered: make([][]Decision, n),
		retrans:   make(map[int]map[RetransKey][]envelope),
		catchGen:  make([]uint64, n),
		agreed:    make(map[wire.InstanceID][]byte),
	}
	for i := range n {
		h.nodes = append(h.nodes, NewNode(Options{ID: i, N: n, Window: 4}))
		h.retrans[i] = make(map[RetransKey][]envelope)
	}
	for i, nd := range h.nodes {
		h.apply(i, nd.Start())
	}
	return h
}

// post puts one send on the wire, registering its retransmission.
func (h *harness) post(node int, s SendEffect) {
	var dests []int
	if s.To == Broadcast {
		for d := range h.n {
			if d != node {
				dests = append(dests, d)
			}
		}
	} else {
		dests = []int{s.To}
	}
	var envs []envelope
	for _, d := range dests {
		env := envelope{from: node, to: d, msg: s.Msg}
		envs = append(envs, env)
		h.inflight = append(h.inflight, env)
	}
	if s.Retrans != nil {
		h.retrans[node][*s.Retrans] = envs
	}
}

// apply folds a node's effects into the harness state.
func (h *harness) apply(node int, e Effects) {
	for _, k := range e.CancelRetrans {
		delete(h.retrans[node], k)
		h.unpark(node, k)
	}
	if e.ViewChanged && h.journals != nil {
		h.journals[node].journalView(h.nodes[node].View())
	}
	for _, s := range e.Sends {
		if s.Vote && h.journals != nil {
			h.park(node, s)
			continue
		}
		h.post(node, s)
	}
	if e.CatchUp != nil {
		h.catchGen[node] = e.CatchUpGen
		// Ask the node's current leader.
		to := h.nodes[node].Leader()
		if to != node {
			h.inflight = append(h.inflight, envelope{from: node, to: to, msg: e.CatchUp})
		}
	}
	for _, d := range e.Decisions {
		// Per-node decisions must be contiguous from 0.
		if want := wire.InstanceID(len(h.delivered[node])); d.ID != want {
			h.t.Fatalf("node %d delivered instance %d, want %d (gap or duplicate)", node, d.ID, want)
		}
		h.delivered[node] = append(h.delivered[node], d)
		// Cross-node agreement.
		if prev, ok := h.agreed[d.ID]; ok {
			if !bytes.Equal(prev, d.Value) {
				h.t.Fatalf("agreement violated at instance %d: %q vs %q", d.ID, prev, d.Value)
			}
		} else {
			h.agreed[d.ID] = d.Value
		}
	}
}

// deliver hands env to its destination.
func (h *harness) deliver(env envelope) {
	e := h.nodes[env.to].HandleMessage(env.from, env.msg)
	h.apply(env.to, e)
}

// step processes one random event. chaos enables drops/dups/suspicions
// (and, on a durable harness, syncs and crashes).
func (h *harness) step(chaos bool) {
	if chaos && h.journals != nil {
		switch r := h.rng.Float64(); {
		case r < 0.25:
			h.sync(h.rng.Intn(h.n))
			return
		case r < 0.256:
			h.crash(h.rng.Intn(h.n))
			return
		}
	}
	r := h.rng.Float64()
	switch {
	case chaos && r < 0.02:
		// Random suspicion: drives view changes.
		i := h.rng.Intn(h.n)
		h.apply(i, h.nodes[i].OnSuspect(h.nodes[i].View()))
	case chaos && r < 0.08:
		// Redeliver a random retransmittable message (duplication).
		i := h.rng.Intn(h.n)
		for _, envs := range h.retrans[i] {
			for _, env := range envs {
				h.inflight = append(h.inflight, env)
			}
			break
		}
	default:
		if len(h.inflight) == 0 {
			return
		}
		idx := h.rng.Intn(len(h.inflight))
		env := h.inflight[idx]
		h.inflight[idx] = h.inflight[len(h.inflight)-1]
		h.inflight = h.inflight[:len(h.inflight)-1]
		if chaos && h.rng.Float64() < 0.10 {
			return // dropped; retransmission will recover reliable traffic
		}
		h.deliver(env)
	}
}

// proposeAtLeader submits value via whichever node currently leads.
func (h *harness) proposeAtLeader(value []byte) bool {
	for i, nd := range h.nodes {
		if nd.WindowOpen() {
			e, ok := nd.ProposeBatch(value)
			if ok {
				h.apply(i, e)
				return true
			}
		}
	}
	return false
}

// drain runs the cluster with no chaos until quiescence, forcing
// retransmissions and heartbeats so every node converges.
func (h *harness) drain() {
	for round := 0; round < 60; round++ {
		for h.syncAll(); len(h.inflight) > 0; h.syncAll() {
			h.step(false)
		}
		// Fire retransmissions.
		for i := range h.n {
			for _, envs := range h.retrans[i] {
				h.inflight = append(h.inflight, envs...)
			}
		}
		// Leader heartbeats propagate watermarks; followers retry catch-up.
		for i, nd := range h.nodes {
			if nd.IsLeader() {
				hb := &wire.Heartbeat{View: nd.View(), DecidedUpTo: nd.DecidedUpTo()}
				for d := range h.n {
					if d != i {
						h.inflight = append(h.inflight, envelope{from: i, to: d, msg: hb})
					}
				}
			} else {
				h.apply(i, nd.CatchUpTimeout(h.catchGen[i]))
			}
		}
		if len(h.inflight) == 0 {
			return
		}
	}
}

func runRandomizedSchedule(t *testing.T, n int, seed int64, steps int) {
	runSchedule(t, newHarness(t, n, seed), seed, steps)
}

func runSchedule(t *testing.T, h *harness, seed int64, steps int) {
	proposed := 0
	for s := range steps {
		if s%7 == 0 && proposed < 40 {
			val := wire.EncodeBatch([]*wire.ClientRequest{{ClientID: 77, Seq: uint64(proposed), Payload: []byte(fmt.Sprintf("v%d", proposed))}})
			if h.proposeAtLeader(val) {
				proposed++
			}
		}
		h.step(true)
	}
	h.drain()
	// Safety: all nodes delivered a prefix of the same sequence.
	maxLen := 0
	maxNode := 0
	for i := range h.nodes {
		if len(h.delivered[i]) > maxLen {
			maxLen = len(h.delivered[i])
			maxNode = i
		}
	}
	for i := range h.nodes {
		for j, d := range h.delivered[i] {
			ref := h.delivered[maxNode][j]
			if d.ID != ref.ID || !bytes.Equal(d.Value, ref.Value) {
				t.Fatalf("seed %d: node %d decision %d = (%d,%q), node %d has (%d,%q)",
					seed, i, j, d.ID, d.Value, maxNode, ref.ID, ref.Value)
			}
		}
	}
	// Progress: after drain with a live majority something must decide as
	// long as any proposals happened.
	if proposed > 3 && maxLen == 0 {
		t.Fatalf("seed %d: %d proposals but nothing decided", seed, proposed)
	}
}

func TestPropertyRandomScheduleAgreementN3(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		runRandomizedSchedule(t, 3, seed, 1200)
	}
}

func TestPropertyRandomScheduleAgreementN5(t *testing.T) {
	for seed := int64(100); seed < 115; seed++ {
		runRandomizedSchedule(t, 5, seed, 1500)
	}
}

// TestRefusedInstallResurfacesAfterTimeout pins the install retry loop: a
// surfaced snapshot whose two-phase install never completes (persist
// refused downstream, or every fast-forward nudge lost) must be surfaced
// again after a catch-up timeout — including a STALE timeout, because in a
// healthy-latency cluster responses always beat their timers and a reset
// gated on a live timeout would never run, wedging the replica behind the
// cut forever.
func TestRefusedInstallResurfacesAfterTimeout(t *testing.T) {
	f2 := NewNode(Options{ID: 2, N: 3})
	resp := &wire.CatchUpResp{HasSnapshot: true, Meta: wire.SnapshotMeta{
		LastIncluded: 4, TotalBytes: 1}}
	e := f2.HandleMessage(0, resp)
	if e.InstallSnapshot == nil {
		t.Fatal("snapshot not surfaced")
	}
	// Install in flight: duplicates do not re-surface.
	if e2 := f2.HandleMessage(0, resp); e2.InstallSnapshot != nil {
		t.Fatal("duplicate response re-surfaced a pending install")
	}
	// The install was refused (no FastForward ever arrives). A stale
	// timeout — no query pending, the response long since consumed it —
	// re-opens the gate, and the next response retries the install.
	f2.CatchUpTimeout(0)
	if e3 := f2.HandleMessage(0, resp); e3.InstallSnapshot == nil {
		t.Fatal("refused install never re-surfaced after a stale timeout")
	}
	// Once the install completes (FastForward released), the same snapshot
	// is stale by log position and stays quiet even after timeouts.
	f2.FastForward(5)
	f2.CatchUpTimeout(0)
	if e4 := f2.HandleMessage(0, resp); e4.InstallSnapshot != nil {
		t.Fatal("completed install re-surfaced")
	}
}

func TestGroupScopedSnapshotInstall(t *testing.T) {
	// A node running group 1 of 4 receives a snapshot cut at merged index
	// 99. Its share of the covered prefix is GroupCut(99, 4, 1) = 25 slots,
	// so once the two-phase install releases the fast-forward its log must
	// land at base 25, not 100. (The catch-up response itself only surfaces
	// the snapshot; the cut is released after the snapshot is durable.)
	f := NewNode(Options{ID: 2, N: 3, Group: 1, Groups: 4})
	resp := &wire.CatchUpResp{HasSnapshot: true, Meta: wire.SnapshotMeta{
		LastIncluded: 99, Groups: 4, TotalBytes: 1}}
	e := f.HandleMessage(0, resp)
	if e.InstallSnapshot == nil || e.InstallSnapshot.LastIncluded != 99 {
		t.Fatalf("InstallSnapshot effect = %+v", e.InstallSnapshot)
	}
	want := wire.GroupCut(99, 4, 1)
	if f.Log().Base() != 0 {
		t.Errorf("log base = %d before install release, want 0", f.Log().Base())
	}
	f.FastForward(want)
	if got := f.Log().Base(); got != want {
		t.Errorf("log base = %d, want %d", got, want)
	}

	// A topology-mismatched snapshot must not touch the log.
	f2 := NewNode(Options{ID: 2, N: 3, Group: 1, Groups: 4})
	bad := &wire.CatchUpResp{HasSnapshot: true, Meta: wire.SnapshotMeta{
		LastIncluded: 99, Groups: 2, TotalBytes: 1}}
	e = f2.HandleMessage(0, bad)
	if e.InstallSnapshot != nil {
		t.Error("mismatched-groups snapshot installed")
	}
	if f2.Log().Base() != 0 {
		t.Errorf("log base = %d after mismatched snapshot, want 0", f2.Log().Base())
	}
}

func TestFastForward(t *testing.T) {
	// A leader with open in-flight instances fast-forwards past some of
	// them (a sibling group's catch-up installed a snapshot): the covered
	// instances are dropped from the log and the open table, and delivery
	// resumes at the cut.
	l, f1, _ := establish3(t, 8)
	for i := range 4 {
		e, ok := l.ProposeBatch(wire.EncodeBatch([]*wire.ClientRequest{{ClientID: 1, Seq: uint64(i + 1)}}))
		if !ok {
			t.Fatalf("propose %d rejected", i)
		}
		_ = e
	}
	if l.InFlight() != 4 {
		t.Fatalf("in flight = %d, want 4", l.InFlight())
	}
	eff := l.FastForward(2)
	if l.Log().Base() != 2 {
		t.Errorf("log base = %d, want 2", l.Log().Base())
	}
	if l.InFlight() != 2 {
		t.Errorf("in flight after fast-forward = %d, want 2", l.InFlight())
	}
	// The dropped in-flight instances' retransmissions must be cancelled,
	// or the dead Proposes would re-broadcast every period forever.
	if len(eff.CancelRetrans) != 2 {
		t.Errorf("CancelRetrans = %v, want the 2 covered proposes", eff.CancelRetrans)
	}
	for _, k := range eff.CancelRetrans {
		if k.Kind != RetransPropose || k.ID >= 2 {
			t.Errorf("unexpected cancel %v", k)
		}
	}
	// A late Accept for a covered instance is harmless (no below-base
	// decide), and the surviving instances still decide normally.
	if e := l.HandleMessage(1, &wire.Accept{View: l.View(), ID: 0}); len(e.Decisions) != 0 {
		t.Errorf("covered instance decided after fast-forward: %+v", e.Decisions)
	}
	e := l.HandleMessage(1, &wire.Accept{View: l.View(), ID: 2})
	if len(e.Decisions) != 1 || e.Decisions[0].ID != 2 {
		t.Fatalf("decisions after fast-forward = %+v, want instance 2", e.Decisions)
	}
	// Fast-forwarding backwards is a no-op.
	l.FastForward(1)
	if l.Log().Base() != 2 {
		t.Errorf("log base moved backwards to %d", l.Log().Base())
	}
	_ = f1
}

func TestAdvanceToResynchronizesMissedViewChange(t *testing.T) {
	// A sibling-group node that missed the suspicion fan-out sits at view 0
	// believing the dead replica 0 leads. AdvanceTo(group 0's view) must
	// move it to the new view — and start Phase 1 when this replica leads
	// it — so the group heals without another suspicion.
	n := NewNode(Options{ID: 1, N: 3, Group: 1, Groups: 2})
	e := n.AdvanceTo(1) // leader(1) = 1: this node
	if n.View() != 1 || !e.ViewChanged {
		t.Fatalf("view = %d, changed = %v, want view 1 changed", n.View(), e.ViewChanged)
	}
	if !n.Preparing() {
		t.Error("new-view leader did not start Phase 1")
	}
	if len(e.Sends) == 0 {
		t.Error("no Prepare sent")
	}
	// Stale and equal targets are no-ops.
	if e := n.AdvanceTo(1); e.ViewChanged {
		t.Error("AdvanceTo(current view) changed state")
	}
	if e := n.AdvanceTo(0); e.ViewChanged {
		t.Error("AdvanceTo(older view) changed state")
	}
	// A non-leader of the target view just follows.
	f := NewNode(Options{ID: 2, N: 3, Group: 1, Groups: 2})
	if e := f.AdvanceTo(1); !e.ViewChanged || f.Preparing() {
		t.Errorf("follower AdvanceTo: changed=%v preparing=%v", e.ViewChanged, f.Preparing())
	}
}

func TestFastForwardRetainsAcceptorStateAboveCut(t *testing.T) {
	// A follower accepted slots 0..3 in view 0; a sibling group's snapshot
	// covers only slots < 2. Fast-forwarding must keep the promises for
	// slots 2..3 — wiping them would let a future leader's Phase 1 miss a
	// possibly-decided value.
	f := NewNode(Options{ID: 1, N: 3})
	for i := range 4 {
		f.HandleMessage(0, &wire.Propose{View: 0, ID: wire.InstanceID(i), Value: []byte{byte(i)}})
	}
	f.FastForward(2)
	if f.Log().Base() != 2 {
		t.Fatalf("base = %d, want 2", f.Log().Base())
	}
	suffix := f.Log().SuffixFrom(0)
	if len(suffix) != 2 || suffix[0].ID != 2 || suffix[1].ID != 3 {
		t.Fatalf("suffix after fast-forward = %+v, want accepted slots 2 and 3", suffix)
	}
	if suffix[0].Value[0] != 2 || suffix[1].Value[0] != 3 {
		t.Fatalf("accepted values lost: %+v", suffix)
	}
}
