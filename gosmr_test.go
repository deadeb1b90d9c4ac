package gosmr_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"gosmr"
	"gosmr/internal/service"
)

// cluster is a test helper owning n replicas over an in-process network.
type cluster struct {
	t        *testing.T
	net      gosmr.Network
	n        int
	replicas []*gosmr.Replica
	services []*service.KV
	addrs    []string // client addrs
}

// clusterConfig tweaks startCluster.
type clusterConfig struct {
	snapshotEvery      int
	snapshotChunkBytes int
	window             int
	groups             int
	executorWorkers    int
}

// startCluster boots an n-replica in-process cluster with fast failure
// detection, registering cleanup on t.
func startCluster(t *testing.T, n int, cc clusterConfig) *cluster {
	t.Helper()
	net := gosmr.NewInprocNetwork()
	c := &cluster{t: t, net: net, n: n}
	peers := make([]string, n)
	for i := range n {
		peers[i] = fmt.Sprintf("replica-%d", i)
	}
	for i := range n {
		svc := service.NewKV()
		rep, err := gosmr.NewReplica(gosmr.Config{
			ID:                 i,
			Peers:              peers,
			ClientAddr:         fmt.Sprintf("client-%d", i),
			Network:            net,
			Window:             cc.window,
			Groups:             cc.groups,
			SnapshotEvery:      cc.snapshotEvery,
			SnapshotChunkBytes: cc.snapshotChunkBytes,
			ExecutorWorkers:    cc.executorWorkers,
			BatchDelay:         time.Millisecond,
			HeartbeatInterval:  20 * time.Millisecond,
			SuspectTimeout:     200 * time.Millisecond,
		}, svc)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Start(); err != nil {
			t.Fatal(err)
		}
		c.replicas = append(c.replicas, rep)
		c.services = append(c.services, svc)
		c.addrs = append(c.addrs, fmt.Sprintf("client-%d", i))
	}
	t.Cleanup(c.stopAll)
	return c
}

func (c *cluster) stopAll() {
	for _, r := range c.replicas {
		if r != nil {
			r.Stop()
		}
	}
}

// client dials the cluster with a short timeout.
func (c *cluster) client() *gosmr.Client {
	cli, err := gosmr.Dial(gosmr.ClientConfig{
		Addrs:          c.addrs,
		Network:        c.net,
		Timeout:        15 * time.Second,
		AttemptTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		c.t.Fatal(err)
	}
	return cli
}

// waitConverged waits until every live replica has executed at least want
// requests.
func (c *cluster) waitConverged(want uint64, timeout time.Duration) {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		all := true
		for _, r := range c.replicas {
			if r != nil && r.Executed() < want {
				all = false
			}
		}
		if all {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i, r := range c.replicas {
		if r != nil {
			c.t.Logf("replica %d executed %d", i, r.Executed())
		}
	}
	c.t.Fatalf("cluster did not converge to %d executions within %v", want, timeout)
}

func TestThreeReplicaBasicOrdering(t *testing.T) {
	c := startCluster(t, 3, clusterConfig{})
	cli := c.client()
	defer cli.Close()

	for i := range 20 {
		key := fmt.Sprintf("k%d", i)
		reply, err := cli.Execute(service.EncodePut(key, []byte(fmt.Sprintf("v%d", i))))
		if err != nil {
			t.Fatalf("PUT %d: %v", i, err)
		}
		if st, _ := service.DecodeReply(reply); st != service.KVOK {
			t.Fatalf("PUT %d status = %d", i, st)
		}
	}
	reply, err := cli.Execute(service.EncodeGet("k7"))
	if err != nil {
		t.Fatal(err)
	}
	st, v := service.DecodeReply(reply)
	if st != service.KVOK || string(v) != "v7" {
		t.Fatalf("GET k7 = %d %q, want OK v7", st, v)
	}
	// All replicas execute the same sequence (followers learn via
	// watermark piggyback / heartbeats).
	c.waitConverged(21, 5*time.Second)
	// And their service state converges byte for byte.
	want, err := c.services[0].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		got, err := c.services[i].Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("replica %d state diverged", i)
		}
	}
}

func TestClientRedirectFromFollower(t *testing.T) {
	c := startCluster(t, 3, clusterConfig{})
	// First contact is follower 1; its redirect must land the client on the
	// leader (replica 0).
	cli, err := gosmr.Dial(gosmr.ClientConfig{
		Addrs:          c.addrs,
		Network:        c.net,
		Timeout:        15 * time.Second,
		AttemptTimeout: 300 * time.Millisecond,
		InitialTarget:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	reply, err := cli.Execute(service.EncodePut("via-follower", []byte("ok")))
	if err != nil {
		t.Fatalf("Execute via follower: %v", err)
	}
	if st, _ := service.DecodeReply(reply); st != service.KVOK {
		t.Fatalf("status = %d", st)
	}
}

func TestManyClientsConcurrent(t *testing.T) {
	c := startCluster(t, 3, clusterConfig{})
	const (
		clients = 8
		each    = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := range clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cli := c.client()
			defer cli.Close()
			for i := range each {
				key := fmt.Sprintf("c%d-k%d", ci, i)
				reply, err := cli.Execute(service.EncodePut(key, []byte("v")))
				if err != nil {
					errs <- fmt.Errorf("client %d op %d: %w", ci, i, err)
					return
				}
				if st, _ := service.DecodeReply(reply); st != service.KVOK {
					errs <- fmt.Errorf("client %d op %d: status %d", ci, i, st)
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	c.waitConverged(clients*each, 10*time.Second)
	if c.services[0].Len() != clients*each {
		t.Errorf("keys = %d, want %d", c.services[0].Len(), clients*each)
	}
}

// TestParallelExecutionPublicAPI exercises the ConflictAware + ExecutorWorkers
// surface end to end: a cluster running the conflict-aware KV service with 4
// execution workers must serve a concurrent mixed-conflict workload (shared
// hot keys + private keys + snapshots) and converge every replica to
// byte-identical state.
func TestParallelExecutionPublicAPI(t *testing.T) {
	c := startCluster(t, 3, clusterConfig{executorWorkers: 4, snapshotEvery: 10})
	const (
		clients = 6
		each    = 30
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := range clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cli := c.client()
			defer cli.Close()
			for i := range each {
				key := fmt.Sprintf("shared-%d", i%3) // conflicting across clients
				if i%2 == 0 {
					key = fmt.Sprintf("c%d-k%d", ci, i) // private
				}
				reply, err := cli.Execute(service.EncodePut(key, []byte(fmt.Sprintf("c%d-i%d", ci, i))))
				if err != nil {
					errs <- fmt.Errorf("client %d op %d: %w", ci, i, err)
					return
				}
				if st, _ := service.DecodeReply(reply); st != service.KVOK {
					errs <- fmt.Errorf("client %d op %d: status %d", ci, i, st)
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	c.waitConverged(clients*each, 10*time.Second)
	want, err := c.services[0].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		got, err := c.services[i].Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("replica %d state diverged under parallel execution", i)
		}
	}
	// The executor stage surfaces in the public queue statistics.
	if _, ok := c.replicas[0].QueueStats()["ExecutorQueue-0"]; !ok {
		t.Error("QueueStats missing ExecutorQueue-0")
	}
}

// TestAssembledSnapshotDeterminism pins the cluster-wide snapshot contract
// across the Groups × ExecutorWorkers matrix: with aggressive snapshotting
// and writes still arriving while drains run in the background (the
// copy-on-write window), every replica must assemble byte-identical
// snapshot images — the same manifest (cut, groups, topology, full/delta
// generation chain, every chunk's length and CRC) followed by the same
// chunks, reply cache included. Concurrent clients hammer overlapping keys
// so cuts land mid-burst; the full/delta cadence is a pure function of the
// cut index, so no replica may disagree about which generations exist.
func TestAssembledSnapshotDeterminism(t *testing.T) {
	for _, groups := range []int{1, 2, 4} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("groups=%d_workers=%d", groups, workers), func(t *testing.T) {
				c := startCluster(t, 3, clusterConfig{
					groups:             groups,
					executorWorkers:    workers,
					snapshotEvery:      10,
					snapshotChunkBytes: 1024,
				})
				const (
					clients = 4
					each    = 50
				)
				value := bytes.Repeat([]byte("d"), 300)
				var wg sync.WaitGroup
				errs := make(chan error, clients)
				for ci := range clients {
					wg.Add(1)
					go func(ci int) {
						defer wg.Done()
						cli := c.client()
						defer cli.Close()
						for i := range each {
							key := fmt.Sprintf("hot-%d", i%5) // churn: rewrites dirty the same chunks
							if i%3 == 0 {
								key = fmt.Sprintf("c%d-k%d", ci, i)
							}
							if _, err := cli.Execute(service.EncodePut(key, value)); err != nil {
								errs <- fmt.Errorf("client %d op %d: %w", ci, i, err)
								return
							}
						}
					}(ci)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}
				c.waitConverged(clients*each, 15*time.Second)

				// Every replica has executed the same prefix; once the last
				// cadence cut's drain completes everywhere, the images
				// (manifest, then every chunk it names) must match byte for
				// byte.
				deadline := time.Now().Add(10 * time.Second)
				var imgs [3][]byte
				for time.Now().Before(deadline) {
					same := true
					for i, r := range c.replicas {
						imgs[i] = r.SnapshotImage()
					}
					for i := 1; i < 3; i++ {
						if imgs[i] == nil || !bytes.Equal(imgs[i], imgs[0]) {
							same = false
						}
					}
					if same && imgs[0] != nil {
						break
					}
					time.Sleep(15 * time.Millisecond)
				}
				if imgs[0] == nil {
					t.Fatal("no snapshot was ever assembled")
				}
				for i := 1; i < 3; i++ {
					if !bytes.Equal(imgs[i], imgs[0]) {
						t.Errorf("replica %d assembled snapshot image (%d bytes) differs from replica 0 (%d bytes)",
							i, len(imgs[i]), len(imgs[0]))
					}
				}
				ref := c.replicas[0].ReplyCacheBytes()
				for i := 1; i < 3; i++ {
					if !bytes.Equal(c.replicas[i].ReplyCacheBytes(), ref) {
						t.Errorf("replica %d reply cache diverged", i)
					}
				}
			})
		}
	}
}

func TestLeaderFailover(t *testing.T) {
	c := startCluster(t, 3, clusterConfig{})
	cli := c.client()
	defer cli.Close()
	if _, err := cli.Execute(service.EncodePut("before", []byte("1"))); err != nil {
		t.Fatal(err)
	}
	// Kill the leader (replica 0 leads view 0).
	c.replicas[0].Stop()
	c.replicas[0] = nil
	// The client must fail over to the new leader after the view change.
	start := time.Now()
	reply, err := cli.Execute(service.EncodePut("after", []byte("2")))
	if err != nil {
		t.Fatalf("Execute after leader crash: %v", err)
	}
	if st, _ := service.DecodeReply(reply); st != service.KVOK {
		t.Fatalf("status = %d", st)
	}
	t.Logf("failover completed in %v", time.Since(start))
	// One of the survivors is the leader now.
	lead := 0
	for _, r := range c.replicas[1:] {
		if r.IsLeader() {
			lead++
		}
	}
	if lead != 1 {
		t.Errorf("leaders among survivors = %d, want 1", lead)
	}
	// Both survivors converge.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.replicas[1].Executed() >= 2 && c.replicas[2].Executed() >= 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	s1, _ := c.services[1].Snapshot()
	s2, _ := c.services[2].Snapshot()
	if !bytes.Equal(s1, s2) {
		t.Error("survivor states diverged after failover")
	}
}

func TestReplicaRestartCatchesUp(t *testing.T) {
	c := startCluster(t, 3, clusterConfig{})
	cli := c.client()
	defer cli.Close()
	for i := range 10 {
		if _, err := cli.Execute(service.EncodePut(fmt.Sprintf("k%d", i), []byte("v"))); err != nil {
			t.Fatal(err)
		}
	}
	// Crash follower 2 and bring up a fresh instance with an empty log.
	c.replicas[2].Stop()
	for i := 10; i < 20; i++ {
		if _, err := cli.Execute(service.EncodePut(fmt.Sprintf("k%d", i), []byte("v"))); err != nil {
			t.Fatal(err)
		}
	}
	svc := service.NewKV()
	peers := []string{"replica-0", "replica-1", "replica-2"}
	rep, err := gosmr.NewReplica(gosmr.Config{
		ID: 2, Peers: peers, ClientAddr: "client-2b", Network: c.net,
		BatchDelay:        time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
		SuspectTimeout:    200 * time.Millisecond,
	}, svc)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Start(); err != nil {
		t.Fatal(err)
	}
	c.replicas[2] = rep
	c.services[2] = svc
	// The restarted replica catches up on all 20+ instances via the
	// watermark + catch-up protocol.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && rep.Executed() < 20 {
		time.Sleep(20 * time.Millisecond)
	}
	if rep.Executed() < 20 {
		t.Fatalf("restarted replica executed %d, want >= 20", rep.Executed())
	}
	want, _ := c.services[0].Snapshot()
	got, _ := svc.Snapshot()
	if !bytes.Equal(got, want) {
		t.Error("restarted replica state differs from leader")
	}
}

func TestSnapshotStateTransfer(t *testing.T) {
	// With aggressive snapshotting the leader truncates its log, so a
	// rejoining replica must receive a snapshot, not just log entries.
	c := startCluster(t, 3, clusterConfig{snapshotEvery: 5})
	cli := c.client()
	defer cli.Close()
	c.replicas[2].Stop() // lags from the start
	for i := range 60 {
		if _, err := cli.Execute(service.EncodePut(fmt.Sprintf("k%d", i), []byte("v"))); err != nil {
			t.Fatal(err)
		}
	}
	svc := service.NewKV()
	rep, err := gosmr.NewReplica(gosmr.Config{
		ID: 2, Peers: []string{"replica-0", "replica-1", "replica-2"},
		ClientAddr: "client-2b", Network: c.net,
		SnapshotEvery:     5,
		BatchDelay:        time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
		SuspectTimeout:    200 * time.Millisecond,
	}, svc)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Start(); err != nil {
		t.Fatal(err)
	}
	c.replicas[2] = rep
	c.services[2] = svc
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if got, _ := svc.Snapshot(); func() bool {
			want, _ := c.services[0].Snapshot()
			return bytes.Equal(got, want)
		}() {
			return // converged
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("rejoined replica never converged (kv len %d, want %d)", svc.Len(), c.services[0].Len())
}

func TestDuplicateRequestExecutedOnce(t *testing.T) {
	c := startCluster(t, 3, clusterConfig{})
	// Two clients sharing an ID simulate a retry storm: the same (id, seq)
	// must execute exactly once. We use one client and verify a counter-like
	// service through the KV: PUT is idempotent, so instead check Executed
	// deltas with an artificially resent request via a second client with
	// the same ID and a manually aligned sequence.
	cliA := c.clientWithID(42)
	defer cliA.Close()
	if _, err := cliA.Execute(service.EncodePut("dup", []byte("x"))); err != nil {
		t.Fatal(err)
	}
	c.waitConverged(1, 5*time.Second)
	before := c.replicas[0].Executed()
	// Same ID, same first sequence number: the cluster must treat it as a
	// duplicate of cliA's request and NOT execute it again.
	cliB := c.clientWithID(42)
	defer cliB.Close()
	reply, err := cliB.Execute(service.EncodePut("dup", []byte("y")))
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := service.DecodeReply(reply); st != service.KVOK {
		t.Fatalf("duplicate status = %d", st)
	}
	time.Sleep(300 * time.Millisecond)
	after := c.replicas[0].Executed()
	if after != before {
		t.Errorf("executed count moved %d -> %d: duplicate was re-executed", before, after)
	}
	// The value must still be the first write's.
	cliC := c.client()
	defer cliC.Close()
	got, err := cliC.Execute(service.EncodeGet("dup"))
	if err != nil {
		t.Fatal(err)
	}
	if _, v := service.DecodeReply(got); string(v) != "x" {
		t.Errorf("value = %q, want x (first write wins)", v)
	}
}

// clientWithID dials with a fixed client ID.
func (c *cluster) clientWithID(id uint64) *gosmr.Client {
	cli, err := gosmr.Dial(gosmr.ClientConfig{
		Addrs:          c.addrs,
		Network:        c.net,
		Timeout:        15 * time.Second,
		AttemptTimeout: 300 * time.Millisecond,
		ID:             id,
	})
	if err != nil {
		c.t.Fatal(err)
	}
	return cli
}

func TestFiveReplicaCluster(t *testing.T) {
	c := startCluster(t, 5, clusterConfig{})
	cli := c.client()
	defer cli.Close()
	for i := range 10 {
		if _, err := cli.Execute(service.EncodePut(fmt.Sprintf("k%d", i), []byte("v"))); err != nil {
			t.Fatal(err)
		}
	}
	c.waitConverged(10, 10*time.Second)
}

func TestSingleReplica(t *testing.T) {
	net := gosmr.NewInprocNetwork()
	svc := service.NewKV()
	rep, err := gosmr.NewReplica(gosmr.Config{
		ID: 0, Peers: []string{"solo"}, ClientAddr: "solo-client",
		Network: net, BatchDelay: time.Millisecond,
	}, svc)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Start(); err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	cli, err := gosmr.Dial(gosmr.ClientConfig{Addrs: []string{"solo-client"}, Network: net})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	reply, err := cli.Execute(service.EncodePut("k", []byte("v")))
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := service.DecodeReply(reply); st != service.KVOK {
		t.Fatalf("status = %d", st)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := gosmr.NewReplica(gosmr.Config{}, service.NewKV()); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := gosmr.NewReplica(gosmr.Config{
		ID: 5, Peers: []string{"a", "b", "c"}, ClientAddr: "x",
	}, service.NewKV()); err == nil {
		t.Error("out-of-range ID accepted")
	}
	if _, err := gosmr.NewReplica(gosmr.Config{
		ID: 0, Peers: []string{"a"}, ClientAddr: "x",
	}, nil); err == nil {
		t.Error("nil service accepted")
	}
	if _, err := gosmr.Dial(gosmr.ClientConfig{}); err == nil {
		t.Error("empty client config accepted")
	}
}
