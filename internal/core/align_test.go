package core

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gosmr/internal/batch"
	"gosmr/internal/executor"
	"gosmr/internal/service"
	"gosmr/internal/transport"
	"gosmr/internal/wal"
	"gosmr/internal/wire"
)

// TestFillRuleTable pins the fill decision: next, frontier, mergeWant,
// leadership and window room in, slots to open out.
func TestFillRuleTable(t *testing.T) {
	cases := []struct {
		name                      string
		next, frontier, mergeWant int64
		leader, windowOpen        bool
		want                      int64
	}{
		{"level with the frontier", 10, 10, 0, true, true, 0},
		{"one row behind is the allowed lag", 9, 10, 0, true, true, 0},
		{"two rows behind fills one", 8, 10, 0, true, true, 1},
		{"idle group catches a burst up to frontier-1", 3, 10, 0, true, true, 6},
		{"ahead of every sibling never fills", 12, 10, 0, true, true, 0},
		{"merge demand completes the last row", 9, 10, 10, true, true, 1},
		{"merge demand below the log is stale", 9, 10, 7, true, true, 0},
		{"merge demand beats a stale frontier hint", 4, 5, 9, true, true, 5},
		{"follower leaves it to the leader", 3, 10, 10, false, true, 0},
		{"full window waits for a decision", 3, 10, 10, true, false, 0},
		{"fresh cluster", 0, 0, 0, true, true, 0},
	}
	for _, c := range cases {
		if got := slotsToFill(c.next, c.frontier, c.mergeWant, c.leader, c.windowOpen); got != c.want {
			t.Errorf("%s: slotsToFill(next=%d, frontier=%d, mergeWant=%d, leader=%v, window=%v) = %d, want %d",
				c.name, c.next, c.frontier, c.mergeWant, c.leader, c.windowOpen, got, c.want)
		}
	}
	// The Merger's side of the rule: what group h's buffered slot s needs of g.
	for _, c := range []struct {
		g, h int
		s    wire.InstanceID
		want int64
	}{{0, 3, 7, 8}, {2, 3, 7, 8}, {3, 0, 7, 7}, {1, 0, 0, 0}} {
		if got := mergeNeed(c.g, c.h, c.s); got != c.want {
			t.Errorf("mergeNeed(g=%d, h=%d, s=%d) = %d, want %d", c.g, c.h, c.s, got, c.want)
		}
	}
}

// alignCluster is a 3-replica in-process cluster for the alignment tests.
type alignCluster struct {
	net  *transport.Inproc
	reps []*Replica
	svcs []Service
}

func startAlignCluster(t *testing.T, name string, delay time.Duration,
	mkSvc func(i int) Service, cfg func(i int, c *Config)) *alignCluster {
	t.Helper()
	c := bootAlignCluster(t, transport.NewInproc(0), name, delay, mkSvc, cfg)
	waitAllGroupLeaders(t, c.reps[0])
	return c
}

// bootAlignCluster starts the replicas on net and returns without waiting for
// a leader — for tests that hold Phase 1 back with a fault installed on net.
func bootAlignCluster(t *testing.T, net *transport.Inproc, name string, delay time.Duration,
	mkSvc func(i int) Service, cfg func(i int, c *Config)) *alignCluster {
	t.Helper()
	c := &alignCluster{net: net}
	c.net.SetDelay(delay)
	peers := []string{name + "-0", name + "-1", name + "-2"}
	for i := range peers {
		svc := mkSvc(i)
		conf := Config{ID: i, PeerAddrs: peers, ClientAddr: fmt.Sprintf("%s-c%d", name, i), Network: c.net}
		cfg(i, &conf)
		r, err := NewReplica(conf, svc)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Stop)
		c.reps = append(c.reps, r)
		c.svcs = append(c.svcs, svc)
	}
	return c
}

// keysByGroup returns, per ordering group, `per` distinct keys that route
// there.
func keysByGroup(groups, per int) [][]string {
	out := make([][]string, groups)
	for i, found := 0, 0; found < groups*per; i++ {
		k := fmt.Sprintf("k%d", i)
		if g := int(executor.KeyHash(k) % uint64(groups)); len(out[g]) < per {
			out[g] = append(out[g], k)
			found++
		}
	}
	return out
}

// sendPut writes one PUT for a virtual client; reply routing is by ClientID.
func sendPut(conn transport.FrameConn, client, seq uint64, key string) error {
	return conn.WriteFrame(wire.Marshal(&wire.ClientRequest{ClientID: client, Seq: seq,
		Payload: service.EncodePut(key, []byte("v"))}))
}

func readReply(conn transport.FrameConn) (*wire.ClientReply, error) {
	frame, err := conn.ReadFrame()
	if err != nil {
		return nil, err
	}
	msg, err := wire.Unmarshal(frame)
	if err != nil {
		return nil, err
	}
	reply, ok := msg.(*wire.ClientReply)
	if !ok || !reply.OK {
		return nil, fmt.Errorf("unexpected reply %#v", msg)
	}
	return reply, nil
}

// frontierSvc wraps the KV store on a replica with the sequential executor:
// Execute then runs inline on the ServiceManager thread while it processes
// the decision it last took off the DecisionQueue, and on a cluster booted
// empty, with no reads registered, every merged index passes through that
// queue exactly once, in order — so Takes()-1 is the merged index being
// executed.
type frontierSvc struct {
	*service.KV
	r     *Replica
	stale atomic.Int64
}

func (s *frontierSvc) Execute(req []byte) []byte {
	if s.r == nil {
		return s.KV.Execute(req) // a follower: only the leader answers read-index queries
	}
	if m := int64(s.r.decisionQ.Takes()) - 1; int64(s.r.readFrontier()) <= m {
		s.stale.Add(1)
	}
	return s.KV.Execute(req)
}

// TestReadFrontierCoversExecutedWrites is the stale-follower-read regression
// (bench/README Finding 1): the watermark readFrontier() answers read-index
// queries from must cover a decision before that decision can be executed —
// and acknowledged — on the leader. The parent published it at the end of the
// Protocol loop iteration, after the decision was already on the MergeQueue.
func TestReadFrontierCoversExecutedWrites(t *testing.T) {
	ops := 50_000
	if testing.Short() {
		ops = 10_000
	}
	for _, groups := range []int{1, 4} {
		for _, gated := range []bool{false, true} {
			t.Run(fmt.Sprintf("groups=%d,gated=%v", groups, gated), func(t *testing.T) {
				dir := t.TempDir()
				c := startAlignCluster(t, fmt.Sprintf("rf%d%v", groups, gated), 0,
					func(int) Service { return &frontierSvc{KV: service.NewKV()} },
					func(i int, conf *Config) {
						conf.Groups = groups
						// One request per batch and a wide window: the Protocol
						// thread opens many instances after it emitted a
						// decision, which is the time a watermark published at
						// the end of the loop iteration lags. Gated groups run
						// the same race: their decisions go to the MergeQueue
						// as directly as an in-memory group's, the moment the
						// second durable vote — the leader's own from the gate,
						// or a follower's — is counted.
						conf.Batch = batch.Policy{MaxBytes: 1, MaxDelay: time.Millisecond}
						conf.Window = 64
						if gated {
							conf.DataDir = fmt.Sprintf("%s/r%d", dir, i)
							conf.SyncPolicy = wal.SyncBatch
						}
					})
				// No request is in yet, so the ServiceManager has not called
				// Execute: wiring the replica in here is ordered before it.
				leaderSvc := c.svcs[0].(*frontierSvc)
				leaderSvc.r = c.reps[0]
				// Closed loop: `clients` virtual clients on one connection,
				// each sends its next PUT when the previous one is answered.
				const clients = 64
				keys := keysByGroup(groups, clients)
				conn, err := c.net.Dial(c.reps[0].cfg.ClientAddr)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				seqs := make([]uint64, clients)
				send := func(v int) {
					seqs[v]++
					if err := sendPut(conn, uint64(1000+v), seqs[v], keys[v%groups][v/groups]); err != nil {
						t.Error(err)
					}
				}
				for v := range clients {
					send(v)
				}
				for done := 0; done < ops; done++ {
					reply, err := readReply(conn)
					if err != nil {
						t.Fatal(err)
					}
					if done+clients < ops {
						send(int(reply.ClientID - 1000))
					}
				}
				if n := leaderSvc.stale.Load(); n != 0 {
					t.Errorf("%d of %d ops executed on the leader while readFrontier() did not cover them", n, ops)
				}
				// The gated cases must have run the deferred-vote path: every
				// group reports its gate, and only then.
				stats := c.reps[0].QueueStats()
				for g := range groups {
					for _, name := range []string{"DurableGate", "SelfVoteLag"} {
						if _, ok := stats[fmt.Sprintf("%s-g%d", name, g)]; ok != gated {
							t.Errorf("QueueStats has %s-g%d = %v, want %v", name, g, ok, gated)
						}
					}
				}
			})
		}
	}
}

// skewLoad paces an open-loop PUT load: group `hot` gets hotEvery-spaced
// requests, every other group coldEvery-spaced ones, each sent to the replica
// leading its group, one virtual client per request slot so none ever has
// two outstanding. It returns each group's reply latencies.
func skewLoad(t *testing.T, c *alignCluster, leaderOf []int, hot int, hotEvery, coldEvery, dur time.Duration) [][]time.Duration {
	t.Helper()
	const pool = 256 // virtual clients per group; pool*every exceeds any latency
	groups := len(leaderOf)
	keys := keysByGroup(groups, 8)

	var mu sync.Mutex
	sentAt := make(map[uint64]time.Time) // client → send time of its outstanding request
	lats := make([][]time.Duration, groups)
	var sent, got atomic.Int64
	var readers sync.WaitGroup
	type lockedConn struct {
		sync.Mutex // one frame at a time on a shared connection
		transport.FrameConn
	}
	conns := make(map[int]*lockedConn)
	for _, rep := range leaderOf {
		if conns[rep] != nil {
			continue
		}
		conn, err := c.net.Dial(c.reps[rep].cfg.ClientAddr)
		if err != nil {
			t.Fatal(err)
		}
		conns[rep] = &lockedConn{FrameConn: conn}
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				reply, err := readReply(conn)
				if err != nil {
					if got.Load() < sent.Load() {
						t.Error(err)
					}
					return // closed at the end of the load
				}
				now := time.Now()
				mu.Lock()
				g := int(reply.ClientID/pool) - 1
				lats[g] = append(lats[g], now.Sub(sentAt[reply.ClientID]))
				mu.Unlock()
				got.Add(1)
			}
		}()
	}

	var wg sync.WaitGroup
	stop := time.Now().Add(dur)
	for g, rep := range leaderOf {
		every := coldEvery
		if g == hot {
			every = hotEvery
		}
		conn := conns[rep]
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			for n := 0; ; n++ {
				due := start.Add(time.Duration(n) * every)
				if due.After(stop) {
					return
				}
				time.Sleep(time.Until(due))
				client := uint64((g+1)*pool + n%pool) // 0 is not a client ID
				mu.Lock()
				sentAt[client] = time.Now()
				mu.Unlock()
				sent.Add(1)
				conn.Lock()
				err := sendPut(conn, client, uint64(n/pool+1), keys[g][n%len(keys[g])])
				conn.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for deadline := time.Now().Add(10 * time.Second); got.Load() < sent.Load(); {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests answered", got.Load(), sent.Load())
		}
		time.Sleep(time.Millisecond)
	}
	for _, conn := range conns {
		conn.Close()
	}
	readers.Wait()
	return lats
}

func p90(d []time.Duration) time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[len(d)*9/10]
}

// TestMergeAlignmentUnderSkew drives one group at twice its siblings' batch
// rate over a 2 ms network. The busy group's decisions must not wait in the
// merge for more than about a row (the parent held them 2*Window+16 = 32 row
// periods), and the quiet groups must not be ratcheted into opening a slot
// for every batch of every group. The split-leadership variant moves group
// 1's leader to another replica first: the rule must hold with the frontier
// seen through a follower's log, and the merged order must stay identical.
func TestMergeAlignmentUnderSkew(t *testing.T) {
	const (
		groups     = 4
		hot        = 2
		delay      = 2 * time.Millisecond
		batchDelay = 5 * time.Millisecond
		hotEvery   = 2500 * time.Microsecond // one request per batch: 400 batches/s
		coldEvery  = 5 * time.Millisecond    // 200 batches/s
	)
	for _, split := range []bool{false, true} {
		t.Run(fmt.Sprintf("split=%v", split), func(t *testing.T) {
			kvs := make([]*service.KV, 3)
			c := startAlignCluster(t, fmt.Sprintf("skew%v", split), delay,
				func(i int) Service { kvs[i] = service.NewKV(); return kvs[i] },
				func(_ int, conf *Config) {
					conf.Groups, conf.Window = groups, 8
					// One request fills a batch, so the paced request rates
					// are the groups' real batch rates.
					conf.Batch = batch.Policy{MaxBytes: 1, MaxDelay: batchDelay}
				})
			leaderOf := make([]int, groups)
			if split {
				// Force group 1's view ahead: replica 1 leads it from now on.
				leaderOf[1] = 1
				if ok, _ := c.reps[1].groups[1].dispatchQ.TryPut(event{kind: evSuspect, view: 0}); !ok {
					t.Fatal("suspicion not delivered")
				}
				for deadline := time.Now().Add(5 * time.Second); !c.reps[1].groups[1].isLeader.Load(); {
					if time.Now().After(deadline) {
						t.Fatal("replica 1 never took over group 1")
					}
					time.Sleep(time.Millisecond)
				}
			}
			dur := 2 * time.Second
			if testing.Short() {
				dur = time.Second
			}
			opened := make([]int64, groups)
			for g, grp := range c.reps[0].groups {
				opened[g] = grp.nextSlot.Load()
			}
			lats := skewLoad(t, c, leaderOf, hot, hotEvery, coldEvery, dur)

			// No ratchet: every group opens slots at about the hot group's
			// real batch rate, not at the sum of all groups' rates.
			hotBatches := float64(len(lats[hot]))
			for g, grp := range c.reps[0].groups {
				if n := float64(grp.nextSlot.Load() - opened[g]); n > 1.25*hotBatches+8 {
					t.Errorf("group %d opened %.0f slots for %.0f hot-group batches (ratchet)", g, n, hotBatches)
				}
			}
			// Three round trips: client to leader and back (the injected
			// delay covers client connections too), the batch's own consensus
			// round, and at most one more for the fill of the row it merges
			// behind. The batch delay is the margin: MaxBytes 1 flushes a
			// request at once.
			limit := batchDelay + 3*2*delay
			if split {
				// Group 1's leader sees the frontier through a follower's log,
				// one hop late, and replica 0 learns group 1's decisions as a
				// follower does: from the Propose of the row after.
				limit += 2 * 2 * delay
			}
			if got := p90(lats[hot]); got > limit {
				t.Errorf("hot group reply p90 = %v, want <= %v", got, limit)
			}
			t.Logf("reply p90 per group: %v %v %v %v; pads %d; hot batches %.0f",
				p90(lats[0]), p90(lats[1]), p90(lats[2]), p90(lats[3]), c.reps[0].PadsProposed(), hotBatches)

			// Identical merged order everywhere.
			total := uint64(0)
			for _, l := range lats {
				total += uint64(len(l))
			}
			for _, r := range c.reps {
				for deadline := time.Now().Add(10 * time.Second); r.Executed() < total; {
					if time.Now().After(deadline) {
						t.Fatalf("replica %d executed %d of %d", r.ID(), r.Executed(), total)
					}
					time.Sleep(time.Millisecond)
				}
			}
			want, err := kvs[0].Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < 3; i++ {
				snap, err := kvs[i].Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, snap) || !bytes.Equal(c.reps[0].replyCache.Marshal(), c.reps[i].replyCache.Marshal()) {
					t.Errorf("replica %d diverged from replica 0", i)
				}
			}
		})
	}
}

// TestMergeLastRowCompletes sends one request into one group of an otherwise
// idle cluster. Nothing but the Merger's demand can open the siblings' slots
// of that row, and the Merger runs no timer: the reply must arrive after the
// batch delay, the request's round trip and the fill's round trip.
func TestMergeLastRowCompletes(t *testing.T) {
	const (
		groups     = 4
		delay      = 2 * time.Millisecond
		batchDelay = 5 * time.Millisecond
	)
	c := startAlignCluster(t, "lastrow", delay,
		func(int) Service { return service.NewKV() },
		func(_ int, conf *Config) {
			conf.Groups, conf.Window = groups, 8
			conf.Batch = batch.Policy{MaxBytes: 1300, MaxDelay: batchDelay}
		})
	conn, err := c.net.Dial(c.reps[0].cfg.ClientAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The last group of a row merges behind every sibling's slot of it.
	key := keysByGroup(groups, 1)[groups-1][0]
	var worst time.Duration
	for seq := uint64(1); seq <= 5; seq++ {
		time.Sleep(20 * time.Millisecond) // let the cluster go fully idle
		start := time.Now()
		if err := sendPut(conn, 7, seq, key); err != nil {
			t.Fatal(err)
		}
		if _, err := readReply(conn); err != nil {
			t.Fatal(err)
		}
		worst = max(worst, time.Since(start))
	}
	// Client hop, the request's round and the fill's round, plus scheduling
	// margin (the parent's 5 ms quiet-queue timer took 35-50 ms here).
	limit := batchDelay + 3*2*delay + 8*time.Millisecond
	t.Logf("lone request: worst of 5 = %v (limit %v)", worst, limit)
	if worst > limit {
		t.Errorf("lone request took %v, want <= %v", worst, limit)
	}
	if c.reps[0].PadsProposed() == 0 {
		t.Error("no pad proposed: the siblings' slots of the row were never filled")
	}
}
