package gosmr_test

// Disk-fault injection tests: the full replica pipeline with a scripted
// filesystem under it. The network stays clean — these scenarios isolate the
// DISK fault policy (fail-stop for the WAL append path, degrade for snapshot
// persistence, quarantine for read corruption) and check each one against
// the only oracle that matters: after the faulty replica recovers on a
// healthy filesystem, no acknowledged write is missing anywhere.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gosmr"
	"gosmr/internal/service"
	"gosmr/internal/transport"
	"gosmr/internal/vfs"
)

// faultCluster is durableCluster's disk-fault sibling: each replica's entire
// durable path (WAL, snapshots, transfer staging) goes through its own
// scriptable vfs.FaultFS, injected via Config.FS. With no rules installed
// the FaultFS is a passthrough, so a faultCluster behaves exactly like a
// durableCluster until a test scripts a fault.
type faultCluster struct {
	t      *testing.T
	net    *transport.Inproc
	prefix string
	peers  []string
	dirs   []string
	fss    []*vfs.FaultFS
	cfg    gosmr.Config
	reps   []*gosmr.Replica
	stores []*service.KV
}

func newFaultCluster(t *testing.T, prefix string, groups, snapshotEvery int) *faultCluster {
	t.Helper()
	c := &faultCluster{
		t:      t,
		net:    transport.NewInproc(0),
		prefix: prefix,
		peers:  []string{prefix + "-r0", prefix + "-r1", prefix + "-r2"},
	}
	c.cfg = gosmr.Config{
		Peers:             c.peers,
		Network:           c.net,
		Groups:            groups,
		SnapshotEvery:     snapshotEvery,
		SyncPolicy:        "batch",
		BatchDelay:        time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
		SuspectTimeout:    400 * time.Millisecond,
	}
	c.reps = make([]*gosmr.Replica, 3)
	c.stores = make([]*service.KV, 3)
	c.dirs = make([]string, 3)
	c.fss = make([]*vfs.FaultFS, 3)
	for i := range 3 {
		c.dirs[i] = t.TempDir()
		c.fss[i] = vfs.NewFaultFS(nil)
		c.boot(i)
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

// boot builds and starts replica i from its DataDir through its current
// FaultFS, with a brand-new service instance.
func (c *faultCluster) boot(i int) {
	c.t.Helper()
	cfg := c.cfg
	cfg.ID = i
	cfg.ClientAddr = fmt.Sprintf("%s-c%d", c.prefix, i)
	cfg.DataDir = c.dirs[i]
	cfg.FS = c.fss[i]
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

// kill stops replica i (idempotent — a fail-stopped replica has already
// begun stopping itself) and discards its in-memory state.
func (c *faultCluster) kill(i int) {
	c.t.Helper()
	c.reps[i].Stop()
	c.reps[i] = nil
	c.stores[i] = nil
}

// bootClean restarts replica i from its (possibly damaged) DataDir on a
// fresh, fault-free filesystem — the "disk replaced / space freed, process
// restarted" recovery event every oracle below ends with.
func (c *faultCluster) bootClean(i int) {
	c.t.Helper()
	c.fss[i] = vfs.NewFaultFS(nil)
	c.boot(i)
}

func (c *faultCluster) client() *gosmr.Client {
	c.t.Helper()
	cli, err := gosmr.Dial(gosmr.ClientConfig{
		Addrs:   []string{c.prefix + "-c0", c.prefix + "-c1", c.prefix + "-c2"},
		Network: c.net, Timeout: 30 * time.Second, AttemptTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		c.t.Fatal(err)
	}
	c.t.Cleanup(cli.Close)
	return cli
}

// TestDiskFaultMatrix drives seeded fault schedules through every injection
// point of the durable stack, for 1 and 2 ordering groups. One seed scripts
// the whole matrix: vfs.SeedNth turns (seed, cell) into the occurrence
// number that trips, so each cell hits a different point of the replica's
// write history yet every run of the test replays the same schedules.
//
// Cells split by declared policy:
//
//   - fail-stop (wal-append, wal-fsync, segment-seal): the faulted follower
//     must latch Faulted, stop participating (the surviving quorum keeps
//     committing), and — the oracle — rejoin after a restart on a clean
//     filesystem with every acknowledged write intact.
//   - degrade (manifest-rename, chunk-write-enospc): the replica must NOT
//     stop; the failure is counted in SnapshotFailures, the next cut retries
//     and lands a manifest, and the same no-acked-write-lost oracle holds
//     across a restart.
func TestDiskFaultMatrix(t *testing.T) {
	const seed = 20260808
	cells := []struct {
		name     string
		op       vfs.Op
		path     string
		mode     vfs.Mode
		maxNth   int
		failstop bool
	}{
		// A torn in-place write is the nastiest append failure: half the
		// record lands on disk, so the restart oracle also exercises
		// torn-tail repair.
		{"wal-append", vfs.OpWrite, ".seg", vfs.ModeShortWrite, 20, true},
		// fsyncgate: one failed fsync poisons the whole append path.
		{"wal-fsync", vfs.OpSync, ".seg", vfs.ModeError, 8, true},
		// Close is where some filesystems first report buffered write
		// errors; segments are closed when a checkpoint rolls past them.
		{"segment-seal", vfs.OpClose, ".seg", vfs.ModeError, 2, true},
		// Losing the manifest rename loses the cut, not the replica. The
		// match pins the tmp->committed rename itself ("x.mf.tmp -> x.mf"):
		// a bare "manifest-" would also match the test's TempDir, which
		// embeds the subtest name.
		{"manifest-rename", vfs.OpRename, ".mf.tmp ->", vfs.ModeError, 2, false},
		// ENOSPC on a chunk write additionally drives the retention-shrink
		// reaction (errors.Is(err, ENOSPC) → WAL drops catch-up extras).
		{"chunk-write-enospc", vfs.OpWrite, ".chk", vfs.ModeENOSPC, 3, false},
	}
	for _, groups := range []int{1, 2} {
		for _, cl := range cells {
			t.Run(fmt.Sprintf("%s_groups=%d", cl.name, groups), func(t *testing.T) {
				prefix := fmt.Sprintf("dfm-%s-g%d", cl.name, groups)
				c := newFaultCluster(t, prefix, groups, 8)
				nth := vfs.SeedNth(seed, prefix, cl.maxNth)
				c.fss[2].Fail(vfs.Rule{
					Op: cl.op, Path: cl.path, Nth: nth,
					Sticky: cl.failstop, Mode: cl.mode,
				})
				cli := c.client()
				total := 0
				if cl.failstop {
					// Write until the scripted fault trips on follower 2 and
					// it latches the fail-stop state.
					for i := 0; i < 600 && !c.reps[2].Faulted(); i++ {
						putKeys(t, cli, "k", total, 1)
						total++
					}
					if !c.reps[2].Faulted() {
						t.Fatalf("replica 2 never fail-stopped after %d writes (nth=%d, trips=%v)",
							total, nth, c.fss[2].Trips())
					}
					if c.reps[2].WALFaults() == 0 {
						t.Error("Faulted replica reports zero WALFaults")
					}
					// A fail-stopped follower must look dead, not block the
					// quorum: the survivors keep acknowledging writes.
					putKeys(t, cli, "post", 0, 10)
					total += 10
				} else {
					// Write until the scripted fault trips on a snapshot cut.
					for i := 0; i < 600 && c.reps[2].SnapshotFailures() == 0; i++ {
						putKeys(t, cli, "k", total, 1)
						total++
					}
					if c.reps[2].SnapshotFailures() == 0 {
						t.Fatalf("snapshot fault never surfaced after %d writes (nth=%d, trips=%v)",
							total, nth, c.fss[2].Trips())
					}
					if c.reps[2].Faulted() {
						t.Fatal("degrade-class fault fail-stopped the replica")
					}
					// The fault was transient: the next cut retries the
					// persist and must land a manifest on replica 2's disk.
					putKeys(t, cli, "post", 0, 30)
					total += 30
					waitForSnapshotCut(t, c.dirs[2], 8, 20*time.Second)
					if c.reps[2].Faulted() {
						t.Fatal("replica 2 fail-stopped while degrading")
					}
				}
				// Oracle: restart replica 2 from whatever its damaged run
				// left on disk, on a healthy filesystem. Every acknowledged
				// write must reappear on all three replicas — from replica
				// 2's own durable prefix plus catch-up/state transfer for
				// the rest.
				c.kill(2)
				c.bootClean(2)
				waitKV(t, c.stores, total, 30*time.Second)
				waitReplyCaches(t, c.reps, 20*time.Second)
			})
		}
	}
}

// TestLeaderFsyncFaultLosesNoAckedWrite fails the LEADER's WAL fsync in the
// middle of a concurrent write stream. Under group commit the leader's
// proposals and decisions do not wait for its own disk, so at the moment of
// the fault it has proposed — and, with its followers' votes, decided and
// acknowledged — commands its own log never held durably. It must still
// fail-stop, the survivors must elect around it, and every write any client
// saw acknowledged must be on all three replicas once the ex-leader is
// restarted on a healthy disk: an acknowledged write is a fact about two
// durable acceptors, whichever two they were.
func TestLeaderFsyncFaultLosesNoAckedWrite(t *testing.T) {
	const (
		prefix  = "lff"
		writers = 4
	)
	c := newFaultCluster(t, prefix, 1, 0)
	warm := c.client()
	putKeys(t, warm, "warm", 0, 5)
	if !c.reps[0].IsLeader() {
		t.Fatal("setup: replica 0 does not lead")
	}
	c.fss[0].Fail(vfs.Rule{Op: vfs.OpSync, Path: ".seg", Nth: 25, Sticky: true})

	var wg sync.WaitGroup
	acked := make([]int, writers)
	for w := range writers {
		cli := c.client()
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Stop 10 writes after the leader latched its fault: those went
			// through the failover.
			for after := 0; acked[w] < 3000 && after < 10; acked[w]++ {
				if c.reps[0].Faulted() {
					after++
				}
				reply, err := cli.Execute(service.EncodePut(fmt.Sprintf("w%d-%d", w, acked[w]), []byte("v")))
				if err != nil {
					t.Errorf("writer %d: PUT %d: %v", w, acked[w], err)
					return
				}
				if st, _ := service.DecodeReply(reply); st != service.KVOK {
					t.Errorf("writer %d: PUT %d status %d", w, acked[w], st)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !c.reps[0].Faulted() {
		t.Fatalf("leader never fail-stopped (trips=%v)", c.fss[0].Trips())
	}
	total := 5
	for _, n := range acked {
		total += n
	}
	// The survivors alone hold every acknowledged write...
	waitKV(t, c.stores[1:], total, 30*time.Second)
	// ...and the ex-leader, restarted from whatever its faulty run left on
	// disk, converges on the same state.
	c.kill(0)
	c.bootClean(0)
	waitKV(t, c.stores, total, 30*time.Second)
	waitReplyCaches(t, c.reps, 20*time.Second)
}

// TestCorruptWALSegmentBootQuarantines corrupts a SEALED (non-final) WAL
// segment of a stopped replica — silent media corruption, not a crash
// artifact — and restarts it. Because the replica has two live peers, boot
// must not refuse: the corrupt group's segments are quarantined to
// *.corrupt (visible in DiskQuarantines and preserved for forensics) and
// the replica rejoins via catch-up/state transfer, converging on every
// acknowledged write.
func TestCorruptWALSegmentBootQuarantines(t *testing.T) {
	const prefix = "quar"
	c := newFaultCluster(t, prefix, 1, 8)
	cli := c.client()
	putKeys(t, cli, "pre", 0, 20)
	waitKV(t, c.stores, 20, 15*time.Second)
	c.kill(2)

	// Find the newest segment of group 0, then plant a crafted successor
	// holding only a valid header (copied from the real segment). That makes
	// the real segment non-final, so the corruption below cannot be
	// mistaken for a legal torn tail of the live append target.
	gdir := filepath.Join(c.dirs[2], "group-0")
	entries, err := os.ReadDir(gdir)
	if err != nil {
		t.Fatal(err)
	}
	maxSeq := 0
	for _, e := range entries {
		var seq int
		if _, err := fmt.Sscanf(e.Name(), "wal-%08d.seg", &seq); err == nil &&
			e.Name() == fmt.Sprintf("wal-%08d.seg", seq) && seq > maxSeq {
			maxSeq = seq
		}
	}
	if maxSeq == 0 {
		t.Fatalf("no WAL segments in %s", gdir)
	}
	segPath := filepath.Join(gdir, fmt.Sprintf("wal-%08d.seg", maxSeq))
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 16 {
		t.Fatalf("segment %s is only %d bytes; nothing to corrupt", segPath, len(data))
	}
	successor := filepath.Join(gdir, fmt.Sprintf("wal-%08d.seg", maxSeq+1))
	if err := os.WriteFile(successor, data[:8], 0o644); err != nil {
		t.Fatal(err)
	}
	// Flip the first record's bytes: its CRC cannot match.
	for i := 8; i < 12; i++ {
		data[i] ^= 0xFF
	}
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	c.bootClean(2)
	if got := c.reps[2].DiskQuarantines(); got < 2 {
		t.Errorf("DiskQuarantines = %d, want >= 2 (corrupt segment + crafted successor)", got)
	}
	quarantined, err := filepath.Glob(filepath.Join(gdir, "*.seg.corrupt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(quarantined) < 2 {
		t.Errorf("found %d *.seg.corrupt files in %s, want >= 2", len(quarantined), gdir)
	}
	// The quarantined replica rejoins and converges; new writes still land.
	putKeys(t, cli, "post", 0, 10)
	waitKV(t, c.stores, 30, 30*time.Second)
	waitReplyCaches(t, c.reps, 20*time.Second)
}

// TestPullStageWriteFaultDegrades wipes a replica and makes the first
// staged chunk write of its snapshot transfer fail. A wiped replica cuts
// nothing of its own before the install, so its first service-chunk file
// ("svc-") is the pull's first staged chunk. A pull-stage fault is
// degrade-class: the failed pull surfaces in SnapshotFailures, the replica
// keeps running, and the retried transfer (the fault was transient)
// completes the rejoin.
func TestPullStageWriteFaultDegrades(t *testing.T) {
	const prefix = "pullf"
	c := newFaultCluster(t, prefix, 1, 8)
	cli := c.client()
	putKeys(t, cli, "pre", 0, 40)
	waitKV(t, c.stores, 40, 15*time.Second)

	// Wipe replica 2 entirely: its gap now starts at instance 0, far below
	// the survivors' WAL retention, so only a snapshot transfer can close it.
	c.kill(2)
	if err := os.RemoveAll(c.dirs[2]); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(c.dirs[2], 0o755); err != nil {
		t.Fatal(err)
	}
	c.fss[2] = vfs.NewFaultFS(nil).Fail(vfs.Rule{Op: vfs.OpWrite, Path: "svc-"})
	c.boot(2)

	waitKV(t, c.stores, 40, 30*time.Second)
	waitReplyCaches(t, c.reps, 20*time.Second)
	if c.reps[2].SnapshotFailures() == 0 {
		t.Error("failed stage write never surfaced as a snapshot failure")
	}
	if c.reps[2].StateTransfers() == 0 {
		t.Error("wiped replica rejoined without a state transfer; the scenario proved nothing")
	}
	if c.reps[2].Faulted() {
		t.Error("pull-stage fault fail-stopped the replica; staging faults must degrade")
	}
	if n := c.reps[2].WALFaults(); n != 0 {
		t.Errorf("WALFaults = %d after a staging-only fault, want 0", n)
	}
}
