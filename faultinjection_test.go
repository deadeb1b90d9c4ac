package gosmr_test

// Failure-injection tests: the full replica pipeline under a lossy,
// duplicating network. The retransmitter (Sec. V-C4) and the catch-up
// protocol must mask the losses; duplication must be absorbed by the
// protocol's idempotent handlers and the reply cache.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gosmr"
	"gosmr/internal/service"
	"gosmr/internal/transport"
	"gosmr/internal/wire"
)

// lossyCluster boots 3 replicas (with `groups` ordering groups each) over an
// inproc network with the given fault function installed for inter-replica
// traffic only (client traffic stays clean so the test measures
// protocol-level recovery, not client retries). Each replica dials through
// an identity-stamped view of the network (Inproc.As) so BOTH endpoints of
// peer traffic carry replica names — without it the dialing side is
// anonymous and a name-filtered fault would match nothing.
func lossyCluster(t *testing.T, groups int, fault transport.FaultFunc) (*gosmr.Client, []*service.KV, func() []*gosmr.Replica) {
	t.Helper()
	net := transport.NewInproc(0)
	net.SetFault(func(from, to string, frame []byte) (bool, bool) {
		if strings.HasPrefix(from, "fi-r") && strings.HasPrefix(to, "fi-r") {
			return fault(from, to, frame)
		}
		return false, false
	})
	peers := []string{"fi-r0", "fi-r1", "fi-r2"}
	var reps []*gosmr.Replica
	var stores []*service.KV
	for i := range 3 {
		kv := service.NewKV()
		rep, err := gosmr.NewReplica(gosmr.Config{
			ID: i, Peers: peers, ClientAddr: fmt.Sprintf("fi-c%d", i),
			Network:           net.As(peers[i]),
			Groups:            groups,
			BatchDelay:        time.Millisecond,
			HeartbeatInterval: 20 * time.Millisecond,
			SuspectTimeout:    400 * time.Millisecond,
		}, kv)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Start(); err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
		stores = append(stores, kv)
	}
	t.Cleanup(func() {
		for _, r := range reps {
			r.Stop()
		}
	})
	cli, err := gosmr.Dial(gosmr.ClientConfig{
		Addrs:   []string{"fi-c0", "fi-c1", "fi-c2"},
		Network: net, Timeout: 30 * time.Second, AttemptTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)
	return cli, stores, func() []*gosmr.Replica { return reps }
}

func TestProgressUnderMessageLoss(t *testing.T) {
	// Drop 20% of inter-replica frames, deterministically spread.
	var n atomic.Uint64
	cli, stores, _ := lossyCluster(t, 1, func(from, to string, frame []byte) (bool, bool) {
		return n.Add(1)%5 == 0, false
	})
	for i := range 30 {
		key := fmt.Sprintf("lossy-%d", i)
		reply, err := cli.Execute(service.EncodePut(key, []byte("v")))
		if err != nil {
			t.Fatalf("PUT %d under loss: %v", i, err)
		}
		if st, _ := service.DecodeReply(reply); st != service.KVOK {
			t.Fatalf("PUT %d status %d", i, st)
		}
	}
	// All replicas converge despite the losses (watermarks + catch-up).
	waitKV(t, stores, 30, 15*time.Second)
}

func TestProgressUnderDuplication(t *testing.T) {
	// Duplicate every third inter-replica frame.
	var n atomic.Uint64
	cli, stores, reps := lossyCluster(t, 1, func(from, to string, frame []byte) (bool, bool) {
		return false, n.Add(1)%3 == 0
	})
	for i := range 30 {
		if _, err := cli.Execute(service.EncodePut(fmt.Sprintf("dup-%d", i), []byte("v"))); err != nil {
			t.Fatalf("PUT %d under duplication: %v", i, err)
		}
	}
	waitKV(t, stores, 30, 15*time.Second)
	// Exactly 30 executions at the leader: duplicates never re-execute.
	if got := reps()[0].Executed(); got != 30 {
		t.Errorf("leader executed %d, want 30", got)
	}
}

func TestProgressUnderLossAndDuplication(t *testing.T) {
	var n atomic.Uint64
	cli, stores, _ := lossyCluster(t, 1, func(from, to string, frame []byte) (bool, bool) {
		i := n.Add(1)
		return i%7 == 0, i%3 == 0
	})
	for i := range 20 {
		if _, err := cli.Execute(service.EncodePut(fmt.Sprintf("chaos-%d", i), []byte("v"))); err != nil {
			t.Fatalf("PUT %d under chaos: %v", i, err)
		}
	}
	waitKV(t, stores, 20, 15*time.Second)
}

// waitKV waits until every store holds `keys` keys and their snapshots are
// identical.
func waitKV(t *testing.T, stores []*service.KV, keys int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		all := true
		for _, s := range stores {
			if s.Len() != keys {
				all = false
			}
		}
		if all {
			ref, err := stores[0].Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			same := true
			for _, s := range stores[1:] {
				got, err := s.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, ref) {
					same = false
				}
			}
			if same {
				return
			}
		}
		time.Sleep(15 * time.Millisecond)
	}
	for i, s := range stores {
		t.Logf("store %d: %d keys", i, s.Len())
	}
	t.Fatalf("stores did not converge to %d identical keys within %v", keys, timeout)
}

func TestMultiGroupProgressUnderLoss(t *testing.T) {
	// Multi-group ordering under 20% inter-replica frame loss: per-group
	// retransmission and catch-up must recover every group's stream, and
	// the merge must still deliver one identical total order everywhere.
	var n atomic.Uint64
	cli, stores, reps := lossyCluster(t, 2, func(from, to string, frame []byte) (bool, bool) {
		return n.Add(1)%5 == 0, false
	})
	for i := range 30 {
		key := fmt.Sprintf("mg-lossy-%d", i)
		reply, err := cli.Execute(service.EncodePut(key, []byte("v")))
		if err != nil {
			t.Fatalf("PUT %d under loss: %v", i, err)
		}
		if st, _ := service.DecodeReply(reply); st != service.KVOK {
			t.Fatalf("PUT %d status %d", i, st)
		}
	}
	waitKV(t, stores, 30, 15*time.Second)
	if g := reps()[0].Groups(); g != 2 {
		t.Errorf("Groups() = %d, want 2", g)
	}
}

// durableCluster boots a 3-replica durable cluster (DataDir per replica,
// SyncPolicy=batch) on an inproc network and returns a restart function
// that builds replica i again from its data directory with a fresh service
// — the in-process stand-in for kill -9 + restart: the old object's entire
// in-memory state is discarded and only the DataDir survives.
type durableCluster struct {
	t      *testing.T
	net    *transport.Inproc
	peers  []string
	dirs   []string
	cfg    gosmr.Config
	reps   []*gosmr.Replica
	stores []*service.KV
}

func newDurableCluster(t *testing.T, prefix string, groups, workers, snapshotEvery int) *durableCluster {
	t.Helper()
	c := &durableCluster{
		t:     t,
		net:   transport.NewInproc(0),
		peers: []string{prefix + "-r0", prefix + "-r1", prefix + "-r2"},
	}
	c.cfg = gosmr.Config{
		Peers:             c.peers,
		Network:           c.net,
		Groups:            groups,
		ExecutorWorkers:   workers,
		SnapshotEvery:     snapshotEvery,
		SyncPolicy:        "batch",
		BatchDelay:        time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
		SuspectTimeout:    400 * time.Millisecond,
	}
	c.reps = make([]*gosmr.Replica, 3)
	c.stores = make([]*service.KV, 3)
	c.dirs = make([]string, 3)
	for i := range 3 {
		c.dirs[i] = t.TempDir()
		c.boot(i, prefix)
	}
	t.Cleanup(func() {
		for _, r := range c.reps {
			if r != nil {
				r.Stop()
			}
		}
	})
	return c
}

// boot builds and starts replica i from its (possibly already written)
// DataDir with a brand-new service instance.
func (c *durableCluster) boot(i int, prefix string) {
	c.t.Helper()
	cfg := c.cfg
	cfg.ID = i
	cfg.ClientAddr = fmt.Sprintf("%s-c%d", prefix, i)
	cfg.DataDir = c.dirs[i]
	kv := service.NewKV()
	rep, err := gosmr.NewReplica(cfg, kv)
	if err != nil {
		c.t.Fatal(err)
	}
	if err := rep.Start(); err != nil {
		c.t.Fatal(err)
	}
	c.reps[i] = rep
	c.stores[i] = kv
}

// kill stops replica i and discards every in-memory structure; only its
// DataDir remains.
func (c *durableCluster) kill(i int) {
	c.t.Helper()
	c.reps[i].Stop()
	c.reps[i] = nil
	c.stores[i] = nil
}

// client dials the cluster.
func (c *durableCluster) client(prefix string) *gosmr.Client {
	c.t.Helper()
	cli, err := gosmr.Dial(gosmr.ClientConfig{
		Addrs:   []string{prefix + "-c0", prefix + "-c1", prefix + "-c2"},
		Network: c.net, Timeout: 30 * time.Second, AttemptTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		c.t.Fatal(err)
	}
	c.t.Cleanup(cli.Close)
	return cli
}

// put writes n sequential keys through cli and fails the test on any error.
func putKeys(t *testing.T, cli *gosmr.Client, prefix string, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		reply, err := cli.Execute(service.EncodePut(fmt.Sprintf("%s-%d", prefix, i), []byte("v")))
		if err != nil {
			t.Fatalf("PUT %d: %v", i, err)
		}
		if st, _ := service.DecodeReply(reply); st != service.KVOK {
			t.Fatalf("PUT %d status %d", i, st)
		}
	}
}

// waitReplyCaches waits until every replica's marshaled reply cache is
// byte-identical to replica 0's.
func waitReplyCaches(t *testing.T, reps []*gosmr.Replica, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ref := reps[0].ReplyCacheBytes()
		same := len(ref) > 0
		for _, r := range reps[1:] {
			if !bytes.Equal(ref, r.ReplyCacheBytes()) {
				same = false
			}
		}
		if same {
			return
		}
		time.Sleep(15 * time.Millisecond)
	}
	for i, r := range reps {
		t.Logf("replica %d reply cache: %d bytes", i, len(r.ReplyCacheBytes()))
	}
	t.Fatal("reply caches did not converge to identical bytes")
}

// TestReplicaKillRestartRecovery kills a replica mid-run (its full
// in-memory state discarded), restarts it from its DataDir, and asserts it
// rejoins with service snapshots and reply caches byte-identical to the
// survivors — across the Groups×ExecutorWorkers matrix. Snapshots are
// disabled so the survivors retain full logs: the restarted replica must
// recover its durable prefix from its own WAL and fetch only the tail via
// catch-up, never a state transfer (StateTransfers stays 0).
func TestReplicaKillRestartRecovery(t *testing.T) {
	for _, groups := range []int{1, 2} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("groups=%d_workers=%d", groups, workers), func(t *testing.T) {
				prefix := fmt.Sprintf("krr-g%d-w%d", groups, workers)
				c := newDurableCluster(t, prefix, groups, workers, 0)
				cli := c.client(prefix)

				putKeys(t, cli, "pre", 0, 15)
				waitKV(t, c.stores, 15, 15*time.Second)

				// Kill follower 2: everything it knew is gone but the WAL.
				c.kill(2)

				// The cluster keeps committing on the surviving majority.
				putKeys(t, cli, "mid", 0, 15)

				// Restart from the data directory and let it rejoin.
				c.boot(2, prefix)
				putKeys(t, cli, "post", 0, 5)

				waitKV(t, c.stores, 35, 20*time.Second)
				waitReplyCaches(t, c.reps, 20*time.Second)
				if n := c.reps[2].StateTransfers(); n != 0 {
					t.Errorf("restarted replica used %d state transfers; its durable prefix should come from the WAL", n)
				}
				if g := c.reps[2].Groups(); g != groups {
					t.Errorf("Groups() = %d, want %d", g, groups)
				}
			})
		}
	}
}

// TestClusterRestartDurability commits commands, stops the whole cluster,
// and reboots every replica from its DataDir: all committed KV state must
// survive — the client saw a reply for each command, so each had been
// fsynced by the group-commit Syncer before the reply could exist. Runs
// with snapshots enabled so boot exercises the snapshot + WAL-suffix path,
// and at 2 ordering groups so per-group logs and the merge position all
// recover.
func TestClusterRestartDurability(t *testing.T) {
	const prefix = "crd"
	c := newDurableCluster(t, prefix, 2, 2, 10)
	cli := c.client(prefix)
	putKeys(t, cli, "dur", 0, 30)
	waitKV(t, c.stores, 30, 15*time.Second)
	cli.Close()

	for i := range 3 {
		c.kill(i)
	}
	for i := range 3 {
		c.boot(i, prefix)
	}

	// Recovery replays snapshots + WAL suffixes; the cluster re-elects and
	// converges on exactly the committed state.
	waitKV(t, c.stores, 30, 20*time.Second)
	waitReplyCaches(t, c.reps, 20*time.Second)

	// And it still makes progress: new commands commit after the restart.
	cli2 := c.client(prefix)
	putKeys(t, cli2, "dur", 30, 5)
	waitKV(t, c.stores, 35, 15*time.Second)
}

// TestSingleReplicaRestartRecoversFromWAL is the isolation proof for local
// recovery: with n=1 there is no peer to catch up from, so every recovered
// command can only have come from the data directory.
func TestSingleReplicaRestartRecoversFromWAL(t *testing.T) {
	net := transport.NewInproc(0)
	dir := t.TempDir()
	boot := func() (*gosmr.Replica, *service.KV) {
		kv := service.NewKV()
		rep, err := gosmr.NewReplica(gosmr.Config{
			ID: 0, Peers: []string{"solo-r0"}, ClientAddr: "solo-c0",
			Network: net, DataDir: dir, SyncPolicy: "batch",
			BatchDelay: time.Millisecond,
		}, kv)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Start(); err != nil {
			t.Fatal(err)
		}
		return rep, kv
	}
	rep, kv := boot()
	cli, err := gosmr.Dial(gosmr.ClientConfig{
		Addrs: []string{"solo-c0"}, Network: net, Timeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	putKeys(t, cli, "solo", 0, 12)
	wantSnap, err := kv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	wantCache := rep.ReplyCacheBytes()
	cli.Close()
	rep.Stop()

	rep2, kv2 := boot()
	defer rep2.Stop()
	deadline := time.Now().Add(10 * time.Second)
	for kv2.Len() < 12 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	gotSnap, err := kv2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotSnap, wantSnap) {
		t.Errorf("recovered KV state diverged from pre-restart state (%d keys, want 12)", kv2.Len())
	}
	gotCache := rep2.ReplyCacheBytes()
	for !bytes.Equal(gotCache, wantCache) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		gotCache = rep2.ReplyCacheBytes()
	}
	if !bytes.Equal(gotCache, wantCache) {
		t.Error("recovered reply cache diverged from pre-restart cache")
	}
}

// TestWALServedCatchUpAvoidsStateTransfer pins catch-up tier 2: a follower
// whose gap reaches below the responder's in-memory truncation base — but
// stays inside the WAL's one-checkpoint-generation retention — refills from
// the responder's DISK, with zero state transfers.
//
// The gap is carved deterministically with fault injection: every frame from
// the leader to follower 2 is dropped for a window of commits, so the
// follower misses exactly those proposes (nothing is queued for replay on a
// reconnect — the messages are gone; the retransmitter cancels on decide).
// Arithmetic (groups=1, sequential client: one instance per command):
// SnapshotEvery=20 cuts at instances 20 (before the window — the follower
// holds it) and 40 (inside it). When the window lifts, the leader's memory
// starts at 40, so the follower's gap [~25, 40) can only come from the
// leader's WAL — which retains the generation since cut 20 — or from a full
// snapshot transfer. StateTransfers == 0 proves the disk path served it.
func TestWALServedCatchUpAvoidsStateTransfer(t *testing.T) {
	net := transport.NewInproc(0)
	var dropToVictim atomic.Bool
	net.SetFault(func(from, to string, frame []byte) (bool, bool) {
		return dropToVictim.Load() && from == "wcu-r0" && to == "wcu-r2", false
	})
	peers := []string{"wcu-r0", "wcu-r1", "wcu-r2"}
	reps := make([]*gosmr.Replica, 3)
	stores := make([]*service.KV, 3)
	dirs := make([]string, 3)
	for i := range 3 {
		dirs[i] = t.TempDir()
		kv := service.NewKV()
		rep, err := gosmr.NewReplica(gosmr.Config{
			ID: i, Peers: peers, ClientAddr: fmt.Sprintf("wcu-c%d", i),
			Network:           net.As(peers[i]),
			DataDir:           dirs[i],
			SyncPolicy:        "batch",
			SnapshotEvery:     20,
			BatchDelay:        time.Millisecond,
			HeartbeatInterval: 20 * time.Millisecond,
			SuspectTimeout:    400 * time.Millisecond,
		}, kv)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rep.Stop)
		reps[i] = rep
		stores[i] = kv
	}
	cli, err := gosmr.Dial(gosmr.ClientConfig{
		Addrs:   []string{"wcu-c0", "wcu-c1", "wcu-c2"},
		Network: net, Timeout: 30 * time.Second, AttemptTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)

	// Follower 2 tracks the first 25 instances normally (through the first
	// snapshot cut at 20).
	putKeys(t, cli, "pre", 0, 25)
	waitKV(t, stores, 25, 15*time.Second)

	// Blackout window: follower 2 sees nothing while 30 commands commit on
	// the majority, crossing the cut at 40 — the leader truncates its
	// in-memory log past the follower's position.
	dropToVictim.Store(true)
	putKeys(t, cli, "mid", 0, 30)
	// The leader must have committed the cut-at-40 snapshot (manifest
	// manifest-...27.mf, LastIncluded 39) before the window lifts, or the
	// test would prove nothing.
	waitForSnapshotCut(t, dirs[0], 39, 15*time.Second)
	dropToVictim.Store(false)

	putKeys(t, cli, "post", 0, 3)
	waitKV(t, stores, 58, 20*time.Second)
	waitReplyCaches(t, reps, 20*time.Second)
	if n := reps[2].StateTransfers(); n != 0 {
		t.Errorf("catch-up used %d state transfers; a WAL-coverable gap must be served from the responder's disk", n)
	}
}

// waitForSnapshotCut waits until dir holds a committed snapshot manifest
// whose cut is at least minCut.
func waitForSnapshotCut(t *testing.T, dataDir string, minCut uint64, timeout time.Duration) {
	t.Helper()
	snapDir := filepath.Join(dataDir, "snapshots")
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		entries, err := os.ReadDir(snapDir)
		if err == nil {
			for _, e := range entries {
				var cut uint64
				if _, err := fmt.Sscanf(e.Name(), "manifest-%016x.mf", &cut); err == nil && cut >= minCut {
					return
				}
			}
		}
		time.Sleep(15 * time.Millisecond)
	}
	t.Fatalf("no snapshot manifest with cut >= %d appeared in %s within %v", minCut, snapDir, timeout)
}

// TestSnapshotPullResumesFromStagedChunks pins the two load-bearing
// properties of chunked state transfer:
//
//  1. No snapshot crosses the wire as a single unbounded unit: with
//     SnapshotChunkBytes set far below the state size, every SnapshotChunk
//     frame the donors emit must stay within the configured cap (plus frame
//     header), and the stream must take many frames.
//  2. An interrupted pull resumes from its durable chunks, not byte 0: the
//     fault injector lets the manifest and exactly two chunk frames
//     through, starves the rest until the puller gives up (SnapshotFailures
//     rises), then heals the network. The retried pull must reuse the two
//     fsynced, verified chunks — TransferResumedBytes equals the sum of
//     their manifest lengths (what those frames carried) and is > 0.
//
// The same cap must hold on disk, so after convergence the victim's
// snapshot directory is walked: every committed chunk file obeys the cap
// and the installed snapshot spans several of them.
func TestSnapshotPullResumesFromStagedChunks(t *testing.T) {
	const (
		chunkBytes = 2048
		valueBytes = 1024
		preKeys    = 12
		midKeys    = 80
	)
	net := transport.NewInproc(0)
	peers := []string{"spr-r0", "spr-r1", "spr-r2"}
	const victim = "spr-r2"

	// Fault modes, advanced by the test as the scenario unfolds.
	const (
		faultOff    = int32(iota) // clean network
		faultGap                  // starve the victim of ordering + catch-up payloads
		faultChunks               // deliver chunkQuota SnapshotChunk frames, drop the rest
	)
	var (
		mode          atomic.Int32
		chunkQuota    atomic.Int32
		quotaBytes    atomic.Int64 // chunk bytes the quota let through (manifest pages excluded)
		chunkFrames   atomic.Int64 // SnapshotChunk frames observed toward the victim
		maxChunkFrame atomic.Int64 // largest such frame, bytes
		gapPassed     atomic.Int64 // liveness frames the gap let through
		gapDropped    atomic.Int64 // frames the gap starved the victim of
	)
	net.SetFault(func(from, to string, frame []byte) (bool, bool) {
		if to != victim || len(frame) == 0 {
			return false, false
		}
		// Peer frames carry a header; Hello, the one bare peer frame, is
		// classified by its own tag.
		typ := wire.MsgType(frame[0])
		var chunkLen int64 = -1 // data length of an OK chunk (not manifest) frame
		if _, _, m, err := wire.UnmarshalPeer(frame); err == nil {
			typ = m.Type()
			if c, ok := m.(*wire.SnapshotChunk); ok && c.OK && !c.Manifest {
				chunkLen = int64(len(c.Data))
			}
			wire.Release(m)
		}
		if typ == wire.TSnapshotChunk {
			chunkFrames.Add(1)
			if n := int64(len(frame)); n > maxChunkFrame.Load() {
				maxChunkFrame.Store(n)
			}
		}
		switch mode.Load() {
		case faultGap:
			// Connections stay up (so nothing is replayed from SendQueue
			// backlogs later) but the victim learns no values: only
			// liveness traffic passes.
			switch typ {
			case wire.THello, wire.THeartbeat, wire.TLeaseAck:
				gapPassed.Add(1)
				return false, false
			}
			gapDropped.Add(1)
			return true, false
		case faultChunks:
			if typ == wire.TSnapshotChunk {
				if chunkQuota.Add(-1) < 0 {
					return true, false
				}
				if chunkLen >= 0 {
					quotaBytes.Add(chunkLen)
				}
			}
		}
		return false, false
	})

	reps := make([]*gosmr.Replica, 3)
	stores := make([]*service.KV, 3)
	dirs := make([]string, 3)
	for i := range 3 {
		dirs[i] = t.TempDir()
		kv := service.NewKV()
		rep, err := gosmr.NewReplica(gosmr.Config{
			ID: i, Peers: peers, ClientAddr: fmt.Sprintf("spr-c%d", i),
			Network:            net.As(peers[i]),
			DataDir:            dirs[i],
			SyncPolicy:         "batch",
			SnapshotEvery:      20,
			SnapshotChunkBytes: chunkBytes,
			BatchDelay:         time.Millisecond,
			HeartbeatInterval:  20 * time.Millisecond,
			SuspectTimeout:     400 * time.Millisecond,
		}, kv)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rep.Stop)
		reps[i] = rep
		stores[i] = kv
	}
	cli, err := gosmr.Dial(gosmr.ClientConfig{
		Addrs:   []string{"spr-c0", "spr-c1"},
		Network: net, Timeout: 30 * time.Second, AttemptTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)
	value := bytes.Repeat([]byte("x"), valueBytes)
	put := func(prefix string, from, n int) {
		t.Helper()
		for i := from; i < from+n; i++ {
			reply, err := cli.Execute(service.EncodePut(fmt.Sprintf("%s-%d", prefix, i), value))
			if err != nil {
				t.Fatalf("PUT %s-%d: %v", prefix, i, err)
			}
			if st, _ := service.DecodeReply(reply); st != service.KVOK {
				t.Fatalf("PUT %s-%d status %d", prefix, i, st)
			}
		}
	}

	// The victim tracks the cluster normally through the first 1 KiB values.
	put("pre", 0, preKeys)
	waitKV(t, stores, preKeys, 15*time.Second)

	// Starvation window: midKeys commands commit on the majority while the
	// victim sees only heartbeats. SnapshotEvery=20 cuts several snapshot
	// generations in the window, so every donor's WAL retention is outrun —
	// the victim's gap can only be closed by a snapshot transfer of ~92 KiB
	// of state, far above the 2 KiB chunk cap.
	mode.Store(faultGap)
	put("mid", 0, midKeys)
	waitForSnapshotCut(t, dirs[0], uint64(preKeys+midKeys-20), 15*time.Second)
	if gapPassed.Load() == 0 || gapDropped.Load() == 0 {
		t.Fatalf("gap let %d liveness frames through and dropped %d others; want both > 0",
			gapPassed.Load(), gapDropped.Load())
	}

	// Let the transfer start but strangle it after the manifest and two
	// staged chunks: the puller must eventually give up (a visible snapshot
	// failure), leaving two durable, verified chunks on disk.
	chunkQuota.Store(3)
	mode.Store(faultChunks)
	deadline := time.Now().Add(30 * time.Second)
	for reps[2].SnapshotFailures() == 0 && time.Now().Before(deadline) {
		time.Sleep(15 * time.Millisecond)
	}
	if reps[2].SnapshotFailures() == 0 {
		t.Fatal("starved pull never surfaced as a snapshot failure")
	}

	// Heal. The re-armed catch-up re-advertises the snapshot, and the retried
	// pull must resume from the staged chunks instead of refetching them.
	mode.Store(faultOff)
	waitKV(t, stores, preKeys+midKeys, 30*time.Second)
	waitReplyCaches(t, reps, 20*time.Second)

	if n := reps[2].StateTransfers(); n == 0 {
		t.Error("victim rejoined without a state transfer; the scenario proved nothing")
	}
	resumed := reps[2].TransferResumedBytes()
	if resumed == 0 {
		t.Error("retried pull restarted from byte 0; staged chunks were not reused")
	}
	if want := uint64(quotaBytes.Load()); resumed != want {
		t.Errorf("resumed %d bytes, want %d — the two chunks staged before the starvation, whole and verified", resumed, want)
	}

	// Wire bound: many frames, none above the cap (+ small frame header).
	if n := chunkFrames.Load(); n < 3 {
		t.Errorf("observed %d SnapshotChunk frames, want a multi-frame stream", n)
	}
	if max := maxChunkFrame.Load(); max > chunkBytes+64 {
		t.Errorf("largest SnapshotChunk frame = %d bytes, exceeds cap %d", max, chunkBytes)
	}

	// Disk bound: the victim's installed snapshot is stored as many capped
	// chunk files, never one unbounded blob.
	var chunkFiles int
	err = filepath.Walk(filepath.Join(dirs[2], "snapshots"), func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".chk") {
			return err
		}
		chunkFiles++
		if info.Size() > chunkBytes {
			t.Errorf("chunk file %s is %d bytes, exceeds cap %d", path, info.Size(), chunkBytes)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if chunkFiles < 2 {
		t.Errorf("victim snapshot dir holds %d chunk files, want a multi-chunk layout", chunkFiles)
	}
}

func TestMultiGroupSnapshotTruncationConverges(t *testing.T) {
	// A clean multi-group cluster snapshotting aggressively: snapshots are
	// cut at merged indices, each group truncates its own log at its share
	// of the prefix, and replicas stay byte-identical throughout.
	net := transport.NewInproc(0)
	peers := []string{"mgs-r0", "mgs-r1", "mgs-r2"}
	var stores []*service.KV
	for i := range 3 {
		kv := service.NewKV()
		rep, err := gosmr.NewReplica(gosmr.Config{
			ID: i, Peers: peers, ClientAddr: fmt.Sprintf("mgs-c%d", i),
			Network:       net,
			Groups:        4,
			SnapshotEvery: 10,
			BatchDelay:    time.Millisecond,
		}, kv)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rep.Stop)
		stores = append(stores, kv)
	}
	cli, err := gosmr.Dial(gosmr.ClientConfig{
		Addrs:   []string{"mgs-c0", "mgs-c1", "mgs-c2"},
		Network: net, Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)
	for i := range 60 {
		if _, err := cli.Execute(service.EncodePut(fmt.Sprintf("mgs-%d", i), []byte("v"))); err != nil {
			t.Fatalf("PUT %d: %v", i, err)
		}
	}
	waitKV(t, stores, 60, 15*time.Second)
}
