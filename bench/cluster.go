package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"gosmr"
	"gosmr/internal/core"
	"gosmr/internal/profiling"
	"gosmr/internal/service"
	"gosmr/internal/transport"
	"gosmr/internal/vfs"
)

// replicas is the cluster size of every workload (n = 2f+1 with f = 1).
const replicas = 3

// node is what the benchmark needs from a replica on the end-to-end path.
// Both the public *gosmr.Replica and (traced run) *core.Replica satisfy it.
type node interface {
	Start() error
	Stop()
	IsLeader() bool
	ClientAddr() string
	StateTransfers() uint64
}

// seams are the three observation points the replica already exposes. The
// zero value is the end-to-end path: replicas built through the public
// gosmr API with nothing attached. With prof set the cluster is the traced
// run's: built through internal/core, which alone exposes the counters the
// per-layer metrics need.
type seams struct {
	network func(base transport.Network, peers []string) transport.Network // wraps Config.Network
	fs      vfs.FS                                                         // Config.FS
	prof    bool                                                           // one Config.Profiling registry per replica
}

// cluster is one in-process 3-replica cluster and the KV instances behind it.
type cluster struct {
	w       *workload
	n       int // replicas
	sm      seams
	dialNet transport.Network // what the load generator dials through (never wrapped)
	repNet  transport.Network // what the replicas use
	peers   []string
	clients []string
	dataDir string // root of the per-replica DataDirs ("" when not durable)

	nodes  []node
	cores  []*core.Replica // traced run only, same order as nodes
	kvs    []*service.KV
	prof   []*profiling.Registry
	leader int
}

// newCluster builds and starts an n-replica cluster for w and waits for a
// leader (and, when the workload reads, for its lease). scratch is a directory inside the
// checkout for DataDirs.
func newCluster(w *workload, n int, sm seams, scratch string) (*cluster, error) {
	c := &cluster{w: w, n: n, sm: sm, leader: -1}
	if w.inproc {
		in := transport.NewInproc(0)
		in.SetDelay(w.delay)
		c.dialNet = in
		for i := range n {
			c.peers = append(c.peers, fmt.Sprintf("bench-peer-%d", i))
			c.clients = append(c.clients, fmt.Sprintf("bench-client-%d", i))
		}
	} else {
		c.dialNet = gosmr.TCPNetwork()
		addrs, err := freePorts(2 * n)
		if err != nil {
			return nil, err
		}
		c.peers, c.clients = addrs[:n], addrs[n:]
	}
	c.repNet = c.dialNet
	if sm.network != nil {
		c.repNet = sm.network(c.dialNet, c.peers)
	}
	if w.durable {
		dir, err := os.MkdirTemp(scratch, "data-")
		if err != nil {
			return nil, fmt.Errorf("bench: DataDir: %w", err)
		}
		c.dataDir = dir
	}
	c.nodes = make([]node, n)
	c.kvs = make([]*service.KV, n)
	if sm.prof {
		c.cores = make([]*core.Replica, n)
		c.prof = make([]*profiling.Registry, n)
	}
	for i := range n {
		if err := c.boot(i); err != nil {
			c.stop()
			return nil, err
		}
	}
	if err := c.awaitLeader(10 * time.Second); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// boot creates replica i around a fresh KV instance and starts it. With a
// DataDir the replica recovers whatever the directory holds, so boot is also
// the restart path of the fault phase.
func (c *cluster) boot(i int) error {
	w := c.w
	kv := service.NewKV()
	kv.ExecuteCost = w.executeCost
	var dir string // with a DataDir the replica journals under SyncPolicy "batch", the default
	if w.durable {
		dir = filepath.Join(c.dataDir, fmt.Sprintf("r%d", i))
	}
	var (
		n   node
		err error
	)
	if c.sm.prof {
		reg := profiling.NewRegistry()
		c.prof[i] = reg
		// The traced run needs PadsProposed, ResetQueueStats and DecidedUpTo,
		// which only internal/core exposes (internal/experiments does the
		// same). Field for field this is what gosmr.NewReplica builds.
		var rep *core.Replica
		rep, err = core.NewReplica(core.Config{
			ID: i, PeerAddrs: c.peers, ClientAddr: c.clients[i],
			Network: c.repNet,
			Groups:  w.groups, Window: w.window, ExecutorWorkers: w.execWorkers,
			SnapshotEvery: w.snapshotEvery,
			DataDir:       dir, FS: c.sm.fs,
			Profiling: reg,
		}, kv)
		if err == nil {
			c.cores[i] = rep
			n = rep
		}
	} else {
		n, err = gosmr.NewReplica(gosmr.Config{
			ID: i, Peers: c.peers, ClientAddr: c.clients[i],
			Network: c.repNet,
			Groups:  w.groups, Window: w.window, ExecutorWorkers: w.execWorkers,
			SnapshotEvery: w.snapshotEvery,
			DataDir:       dir,
		}, kv)
	}
	if err != nil {
		return fmt.Errorf("bench: replica %d: %w", i, err)
	}
	if err := n.Start(); err != nil {
		return fmt.Errorf("bench: starting replica %d: %w", i, err)
	}
	c.nodes[i], c.kvs[i] = n, kv
	return nil
}

// awaitLeader waits until one running replica leads; reading workloads also
// wait for its lease, since reads issued earlier only measure the fallback.
func (c *cluster) awaitLeader(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for i, n := range c.nodes {
			if n == nil || !n.IsLeader() {
				continue
			}
			if lv, ok := n.(interface{ LeaseValid() bool }); ok && c.w.followerReads && !lv.LeaseValid() {
				continue
			}
			c.leader = i
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("bench: no leader within %v", timeout)
}

// follower returns the replica connection 1 reads from.
func (c *cluster) follower() int { return (c.leader + 1) % c.n }

// stateTransfers sums the snapshots the running replicas installed from
// peers: a follower that fell a whole snapshot interval behind the leader.
func (c *cluster) stateTransfers() uint64 {
	var n uint64
	for _, nd := range c.nodes {
		if nd != nil {
			n += nd.StateTransfers()
		}
	}
	return n
}

// stopNodes shuts every running replica down, keeping the DataDirs.
func (c *cluster) stopNodes() {
	for i, n := range c.nodes {
		if n != nil {
			n.Stop()
			c.nodes[i] = nil
		}
	}
}

// stop shuts every replica down and removes the DataDirs.
func (c *cluster) stop() {
	c.stopNodes()
	if c.dataDir != "" {
		_ = os.RemoveAll(c.dataDir)
	}
}

// freePorts reserves n distinct loopback TCP ports and releases them for
// the replicas to bind. The close-then-bind race is negligible on a
// loopback-only host.
func freePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	listeners := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range listeners {
			_ = l.Close()
		}
	}()
	for i := range n {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("bench: reserving port: %w", err)
		}
		listeners = append(listeners, l)
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}
