package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"gosmr/internal/batch"
	"gosmr/internal/queue"
	"gosmr/internal/service"
	"gosmr/internal/transport"
	"gosmr/internal/wire"
)

// TestPullRuleTable pins the Protocol thread's side of the batch hand-off
// beside TestFillRuleTable: leadership, window room, merge backlog and queued
// batches in, "a batch handed over now is proposed at once" out.
func TestPullRuleTable(t *testing.T) {
	const backlogCap = 296 // 4*Window+256 at the default window
	cases := []struct {
		name               string
		leader, windowOpen bool
		backlog            int64
		queued             int
		want               bool
	}{
		{"idle leader pulls", true, true, 0, 0, true},
		{"follower never pulls", false, false, 0, 0, false},
		{"Phase 1 in progress: not leader yet", false, true, 0, 0, false},
		{"full window lets the batch grow", true, false, 0, 0, false},
		{"a queued batch goes first", true, true, 0, 1, false},
		{"merge backlog below the gate", true, true, backlogCap - 1, 0, true},
		{"merge-backlog gate closed", true, true, backlogCap, 0, false},
	}
	for _, c := range cases {
		if got := canPropose(c.leader, c.windowOpen, c.backlog, backlogCap, c.queued); got != c.want {
			t.Errorf("%s: canPropose(leader=%v, window=%v, backlog=%d, queued=%d) = %v, want %v",
				c.name, c.leader, c.windowOpen, c.backlog, c.queued, got, c.want)
		}
	}
}

// waitFor polls cond until it holds or d passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within %v", what, d)
		}
	}
}

func kvCluster(t *testing.T, name string, cfg func(i int, c *Config)) *alignCluster {
	return startAlignCluster(t, name, 0, func(int) Service { return service.NewKV() }, cfg)
}

// TestIdlePathIsTimerFree: with nothing in flight a write is cut, proposed
// and answered at once — a sequential client never waits out Batch.MaxDelay.
func TestIdlePathIsTimerFree(t *testing.T) {
	c := kvCluster(t, "idle", func(_ int, conf *Config) {
		conf.Batch = batch.Policy{MaxDelay: 10 * time.Second}
	})
	conn, err := c.net.Dial(c.reps[0].cfg.ClientAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	t0 := time.Now()
	for seq := uint64(1); seq <= 50; seq++ {
		if err := sendPut(conn, 7, seq, "k"); err != nil {
			t.Fatal(err)
		}
		if _, err := readReply(conn); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(t0); d > 2*time.Second {
		t.Errorf("50 sequential writes took %v with MaxDelay 10s: the idle path waits for a timer", d)
	}
}

// TestFullWindowGrowsBatchBounded: while no instance can be decided the
// window's slots are spent on whatever had arrived, and everything after
// that grows ONE batch up to the cap — neither a batch per request nor a
// batch without bound — which is pulled the moment a slot frees.
func TestFullWindowGrowsBatchBounded(t *testing.T) {
	const (
		window   = 10
		requests = 200
		maxBytes = 128 << 10
	)
	payload := service.EncodePut("key", make([]byte, 1024))
	reqBytes := wire.EncodedRequestSize(len(payload))
	var shut atomic.Bool
	var largest atomic.Int64 // largest Propose frame seen
	var held atomic.Int64    // Accepts dropped while shut
	net := transport.NewInproc(0)
	net.SetFault(func(_, _ string, frame []byte) (bool, bool) {
		switch peerMsgType(frame) {
		case wire.TAccept:
			if shut.Load() {
				held.Add(1)
				return true, false
			}
		case wire.TPropose:
			for n := int64(len(frame)); n > largest.Load(); {
				largest.Store(n)
			}
		}
		return false, false
	})
	c := bootAlignCluster(t, net, "grow", 0, func(int) Service { return service.NewKV() },
		func(_ int, conf *Config) {
			conf.Window = window
			conf.Batch = batch.Policy{MaxBytes: maxBytes, MaxDelay: 10 * time.Second}
		})
	leader := c.reps[0]
	waitLeader(t, leader)
	conn, err := c.net.Dial(leader.cfg.ClientAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	before, made := leader.DecidedBatches(), leader.batchesMade.Load()
	shut.Store(true)
	g := leader.groups[0]
	for v := range requests {
		req := &wire.ClientRequest{ClientID: uint64(1000 + v), Seq: 1, Payload: payload}
		if err := conn.WriteFrame(wire.Marshal(req)); err != nil {
			t.Fatal(err)
		}
		if v < window {
			// One at a time until the window is full: each is cut and
			// proposed alone, as on an idle cluster.
			waitFor(t, 5*time.Second, "request proposed on arrival", func() bool {
				return leader.batchesMade.Load() == made+uint64(v)+1 && g.proposalQ.Len() == 0
			})
		}
	}
	// Everything is in: the window holds its 10, one capped batch waits in
	// the ProposalQueue, the rest sits in the open batch behind it.
	waitFor(t, 5*time.Second, "capped batch queued behind the full window", func() bool {
		return g.proposalQ.Len() == 1 && g.requestQ.Len() == 0
	})
	shut.Store(false) // the retransmitted Proposes are accepted now
	if held.Load() == 0 {
		t.Fatal("no Accept was dropped: the shut window never fired")
	}

	answered := make(map[uint64]int)
	for range requests {
		reply, err := readReply(conn)
		if err != nil {
			t.Fatal(err)
		}
		answered[reply.ClientID]++
	}
	for v := range requests {
		if n := answered[uint64(1000+v)]; n != 1 {
			t.Errorf("client %d answered %d times", 1000+v, n)
		}
	}
	if n := leader.DecidedBatches() - before; n > window+2 {
		t.Errorf("%d non-empty batches decided for %d requests behind a shut window of %d, want <= %d",
			n, requests, window, window+2)
	}
	const proposeHeader = 64 // generous: view, id, watermark, length prefixes
	if n := largest.Load(); n > maxBytes+int64(reqBytes)+proposeHeader {
		t.Errorf("largest Propose is %d bytes: over the %d-byte cap by more than one %d-byte request", n, maxBytes, reqBytes)
	} else if n < maxBytes {
		t.Errorf("largest Propose is %d bytes: no batch grew to the %d-byte cap behind the full window", n, maxBytes)
	}
}

// TestDelayBoundsBatchWithoutLeader: a batch opened while this replica
// cannot propose (Phase 1 still running) is flushed by Batch.MaxDelay — not
// earlier, and not stranded — and proposed once leadership arrives.
func TestDelayBoundsBatchWithoutLeader(t *testing.T) {
	const maxDelay = 100 * time.Millisecond
	var hold atomic.Bool
	var held atomic.Int64 // PrepareOKs dropped while holding
	hold.Store(true)
	net := transport.NewInproc(0)
	net.SetFault(func(_, _ string, frame []byte) (bool, bool) {
		if hold.Load() && peerMsgType(frame) == wire.TPrepareOK {
			held.Add(1)
			return true, false
		}
		return false, false
	})
	c := bootAlignCluster(t, net, "nolead", 0, func(int) Service { return service.NewKV() },
		func(_ int, conf *Config) {
			conf.Batch = batch.Policy{MaxDelay: maxDelay}
			conf.SuspectTimeout = 30 * time.Second // nobody rotates away from the stuck candidate
		})
	r := c.reps[0]
	g := r.groups[0]
	// ClientIO admits requests only at a leader; hand one to the Batcher
	// directly, as a request admitted just before leadership was lost would be.
	t0 := time.Now()
	req := &wire.ClientRequest{ClientID: 9, Seq: 1, Payload: service.EncodePut("k", []byte("v"))}
	if err := g.requestQ.Put(nil, req); err != nil {
		t.Fatal(err)
	}
	waitFor(t, maxDelay+2*time.Second, "batch flushed by MaxDelay", func() bool { return g.proposalQ.Len() == 1 })
	if d := time.Since(t0); d < maxDelay {
		t.Errorf("batch flushed after %v, before MaxDelay %v, at a replica that cannot propose", d, maxDelay)
	}
	if r.IsLeader() {
		t.Fatal("replica leads although every PrepareOK was dropped")
	}
	if held.Load() == 0 {
		t.Fatal("no PrepareOK was dropped: the fault never fired")
	}
	hold.Store(false)
	waitFor(t, 5*time.Second, "batch proposed and executed once Phase 1 completes", func() bool { return r.Executed() == 1 })
}

// TestDrainBeatTellsFollowers: when the leader's pipeline drains, followers
// learn the last decision from the leader's own beat — one hop — not from the
// next Propose (there is none) or the next detector heartbeat (5 s away here).
func TestDrainBeatTellsFollowers(t *testing.T) {
	for _, groups := range []int{1, 2} {
		t.Run(fmt.Sprintf("groups=%d", groups), func(t *testing.T) {
			c := kvCluster(t, fmt.Sprintf("beat%d", groups), func(_ int, conf *Config) {
				conf.Groups = groups
				conf.LeaseDuration = -1
				conf.HeartbeatInterval = 5 * time.Second
				conf.SuspectTimeout = 30 * time.Second
			})
			conn, err := c.net.Dial(c.reps[0].cfg.ClientAddr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			for gi, keys := range keysByGroup(groups, 1) {
				if err := sendPut(conn, uint64(50+gi), 1, keys[0]); err != nil {
					t.Fatal(err)
				}
				if _, err := readReply(conn); err != nil {
					t.Fatal(err)
				}
				waitFor(t, 200*time.Millisecond, "followers' watermarks level with the leader's", func() bool {
					for _, g := range c.reps[0].groups {
						want := g.decidedUpTo.Load()
						for _, f := range c.reps[1:] {
							if f.groups[g.idx].decidedUpTo.Load() != want {
								return false
							}
						}
					}
					return c.reps[0].groups[gi].decidedUpTo.Load() > 0
				})
			}
		})
	}
}

// TestReadIndexRoundExpires: a read-index round whose response is lost still
// expires after RetransPeriod and bounces its reads to the ordered path.
func TestReadIndexRoundExpires(t *testing.T) {
	const period = 50 * time.Millisecond
	var dropped atomic.Int64
	net := transport.NewInproc(0)
	net.SetFault(func(_, _ string, frame []byte) (bool, bool) {
		if peerMsgType(frame) == wire.TReadIndexResp {
			dropped.Add(1)
			return true, false
		}
		return false, false
	})
	c := bootAlignCluster(t, net, "rexp", 0, func(int) Service { return service.NewKV() },
		func(_ int, conf *Config) { conf.RetransPeriod = period })
	waitLeader(t, c.reps[0])
	conn, err := c.net.Dial(c.reps[1].cfg.ClientAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for seq := uint64(1); seq <= 3; seq++ { // the one timer serves every round
		t0 := time.Now()
		rd := &wire.ClientRead{ClientID: 5, Seq: seq, Consistency: wire.ReadLinearizable, Payload: service.EncodeGet("k")}
		if err := conn.WriteFrame(wire.Marshal(rd)); err != nil {
			t.Fatal(err)
		}
		frame, err := conn.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		msg, err := wire.Unmarshal(frame)
		if err != nil {
			t.Fatal(err)
		}
		if reply, ok := msg.(*wire.ClientReply); !ok || reply.OK || reply.Seq != seq {
			t.Fatalf("read %d: got %#v, want a bounce", seq, msg)
		}
		if d := time.Since(t0); d < period || d > period+2*time.Second {
			t.Errorf("read %d bounced after %v, want about RetransPeriod %v", seq, d, period)
		}
	}
	if dropped.Load() == 0 {
		t.Error("no ReadIndexResp was dropped: the bounces came from elsewhere")
	}
}

// TestReadIndexTimerIsReused drives the ReadManager's round logic directly
// (no thread consuming its queue): 1000 answered rounds must leave no expiry
// event behind once RetransPeriod has passed — the parent armed one AfterFunc
// per round and every one of them later posted a dead rTimer.
func TestReadIndexTimerIsReused(t *testing.T) {
	const period = 20 * time.Millisecond
	r, err := NewReplica(Config{ID: 0, PeerAddrs: []string{"rt-0", "rt-1", "rt-2"}, ClientAddr: "rt-c0",
		Network: transport.NewInproc(0), RetransPeriod: period}, service.NewKV())
	if err != nil {
		t.Fatal(err)
	}
	r.groups[0].leaderHint.Store(1)
	m := newReadMgr(r)
	cc := &clientConn{replies: queue.NewBounded[wire.Message]("replies", 1)}
	for range 1000 {
		rd := &wire.ClientRead{ClientID: 5, Seq: 1, Payload: service.EncodeGet("k")}
		m.pending = append(m.pending, readReq{req: rd, cc: cc})
		m.launchQuery()
		if len(m.inflight) != 1 {
			t.Fatalf("round not launched: %d in flight", len(m.inflight))
		}
		m.handleResp(m.querySeq, 0, true)
	}
	if got := r.LocalReads(); got != 1000 {
		t.Fatalf("%d reads served, want 1000", got)
	}
	time.Sleep(3 * period)
	if n := m.q.Len(); n != 0 {
		t.Errorf("%d rTimer events pending after 1000 answered rounds", n)
	}
	// The timer still works after all those Stop/Reset cycles.
	m.pending = append(m.pending, readReq{req: &wire.ClientRead{ClientID: 5, Seq: 2}, cc: cc})
	m.launchQuery()
	waitFor(t, 2*time.Second, "expiry event for an unanswered round", func() bool { return m.q.Len() == 1 })
	m.expiry.Stop()
}

// peerMsgType is the type of the message a peer frame carries, or 0 for a
// frame without the peer header (client frames, Hello).
func peerMsgType(frame []byte) wire.MsgType {
	_, _, m, err := wire.UnmarshalPeer(frame)
	if err != nil {
		return 0
	}
	defer wire.Release(m)
	return m.Type()
}
