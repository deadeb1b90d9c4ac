package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gosmr/internal/profiling"
	"gosmr/internal/service"
	"gosmr/internal/transport"
	"gosmr/internal/wire"
)

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{"no peers", Config{ID: 0, ClientAddr: "c"}},
		{"bad id", Config{ID: 3, PeerAddrs: []string{"a", "b", "c"}, ClientAddr: "c"}},
		{"negative id", Config{ID: -1, PeerAddrs: []string{"a"}, ClientAddr: "c"}},
		{"no client addr", Config{ID: 0, PeerAddrs: []string{"a"}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewReplica(tt.cfg, &service.Null{}); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	if _, err := NewReplica(Config{ID: 0, PeerAddrs: []string{"a"}, ClientAddr: "c"}, nil); err == nil {
		t.Error("nil service accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.ClientIOWorkers != 4 || cfg.Window != 10 || cfg.ProposalQueueCap != 20 {
		t.Errorf("defaults = %+v", cfg)
	}
}

func TestClientRegistry(t *testing.T) {
	r := newClientRegistry()
	ccA := &clientConn{}
	ccB := &clientConn{}
	r.set(7, ccA)
	if got := r.get(7); got != ccA {
		t.Fatalf("get = %p, want %p", got, ccA)
	}
	// Reconnect overwrites the binding; dropping the old conn is a no-op.
	r.set(7, ccB)
	r.drop(7, ccA)
	if got := r.get(7); got != ccB {
		t.Fatalf("get after stale drop = %p, want %p", got, ccB)
	}
	r.drop(7, ccB)
	if got := r.get(7); got != nil {
		t.Fatalf("get after drop = %p, want nil", got)
	}
}

func TestSnapshotStore(t *testing.T) {
	var s snapshotStore
	if _, ok := s.get(); ok {
		t.Error("empty store reported a snapshot")
	}
	s.put(wire.Snapshot{LastIncluded: 9})
	snap, ok := s.get()
	if !ok || snap.LastIncluded != 9 {
		t.Errorf("get = %+v %v", snap, ok)
	}
}

// startReplica boots a single-node replica over inproc for module tests.
func startReplica(t *testing.T, net transport.Network, profile *profiling.Registry) *Replica {
	t.Helper()
	r, err := NewReplica(Config{
		ID:         0,
		PeerAddrs:  []string{"solo-peer"},
		ClientAddr: "solo-client",
		Network:    net,
		Batch:      batchPolicy(),
		Profiling:  profile,
	}, service.NewKV())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	// A solo replica leads as soon as Phase 1 completes; wait for it so
	// requests sent right away are accepted instead of redirected.
	waitLeader(t, r)
	return r
}

func batchPolicy() (p struct {
	MaxBytes int
	MaxDelay time.Duration
}) {
	p.MaxBytes = 1300
	p.MaxDelay = time.Millisecond
	return p
}

func TestSingleReplicaPipelineAndProfiling(t *testing.T) {
	net := transport.NewInproc(0)
	reg := profiling.NewRegistry()
	r, err := NewReplica(Config{
		ID:         0,
		PeerAddrs:  []string{"solo-peer"},
		ClientAddr: "solo-client",
		Network:    net,
		Profiling:  reg,
	}, service.NewKV())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Start(); err == nil {
		t.Error("double Start accepted")
	}
	waitLeader(t, r)

	// Raw wire-level client: send one request, expect an OK reply.
	conn, err := net.Dial("solo-client")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := &wire.ClientRequest{ClientID: 11, Seq: 1, Payload: service.EncodePut("k", []byte("v"))}
	if err := conn.WriteFrame(wire.Marshal(req)); err != nil {
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
	reply, ok := msg.(*wire.ClientReply)
	if !ok || !reply.OK || reply.Seq != 1 {
		t.Fatalf("reply = %+v", msg)
	}
	if r.Executed() != 1 {
		t.Errorf("Executed = %d, want 1", r.Executed())
	}

	// The paper's thread set is registered with the profiler.
	names := make(map[string]bool)
	for _, st := range reg.Snapshot() {
		names[st.Name] = true
	}
	for _, want := range []string{"Protocol", "Batcher", "Replica", "ClientIO-0",
		"FailureDetector", "Retransmitter"} {
		if !names[want] {
			t.Errorf("thread %q not registered (have %v)", want, names)
		}
	}

	// Queue stats cover the Fig. 3 queues.
	stats := r.QueueStats()
	for _, q := range []string{"RequestQueue", "ProposalQueue", "DispatcherQueue", "DecisionQueue"} {
		if _, ok := stats[q]; !ok {
			t.Errorf("QueueStats missing %s", q)
		}
	}
	r.ResetQueueStats()
}

func TestDuplicateRequestServedFromReplyCache(t *testing.T) {
	net := transport.NewInproc(0)
	r := startReplica(t, net, nil)

	conn, err := net.Dial("solo-client")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := wire.Marshal(&wire.ClientRequest{ClientID: 5, Seq: 1, Payload: service.EncodePut("dup", []byte("x"))})
	for range 3 { // original + 2 retries of the same (client, seq)
		if err := conn.WriteFrame(req); err != nil {
			t.Fatal(err)
		}
		frame, err := conn.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := wire.Unmarshal(frame)
		reply := msg.(*wire.ClientReply)
		if !reply.OK {
			t.Fatalf("reply not OK: %+v", reply)
		}
	}
	if got := r.Executed(); got != 1 {
		t.Errorf("Executed = %d, want 1 (duplicates suppressed)", got)
	}
}

func TestMalformedClientFramesIgnored(t *testing.T) {
	net := transport.NewInproc(0)
	r := startReplica(t, net, nil)
	conn, err := net.Dial("solo-client")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Garbage, a non-request message, then a valid request: the pipeline
	// must survive and answer the valid one.
	_ = conn.WriteFrame([]byte{0xFF, 0x01, 0x02})
	_ = conn.WriteFrame(wire.Marshal(&wire.Heartbeat{View: 1}))
	_ = conn.WriteFrame(wire.Marshal(&wire.ClientRequest{ClientID: 9, Seq: 1, Payload: service.EncodeGet("nope")}))
	frame, err := conn.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := wire.Unmarshal(frame)
	if reply, ok := msg.(*wire.ClientReply); !ok || !reply.OK {
		t.Fatalf("reply = %+v", msg)
	}
	_ = r
}

func TestFollowerRedirectsClients(t *testing.T) {
	net := transport.NewInproc(0)
	peers := []string{"ra", "rb", "rc"}
	var reps []*Replica
	for i := range 3 {
		r, err := NewReplica(Config{
			ID: i, PeerAddrs: peers, ClientAddr: fmt.Sprintf("ca-%d", i), Network: net,
		}, &service.Null{})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		defer r.Stop()
		reps = append(reps, r)
	}
	// Wait until replica 0 establishes leadership.
	deadline := time.Now().Add(5 * time.Second)
	for !reps[0].IsLeader() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !reps[0].IsLeader() {
		t.Fatal("replica 0 never led")
	}
	// A request to follower 1 must be redirected to replica 0.
	conn, err := net.Dial("ca-1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.WriteFrame(wire.Marshal(&wire.ClientRequest{ClientID: 3, Seq: 1})); err != nil {
		t.Fatal(err)
	}
	frame, err := conn.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := wire.Unmarshal(frame)
	reply, ok := msg.(*wire.ClientReply)
	if !ok || reply.OK || reply.Redirect != 0 {
		t.Fatalf("reply = %+v, want redirect to 0", msg)
	}
}

func TestStopIsIdempotentAndUnblocks(t *testing.T) {
	net := transport.NewInproc(0)
	r := startReplica(t, net, nil)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	for range 2 {
		go func() {
			defer wg.Done()
			r.Stop()
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent Stop calls did not return")
	}
}

func TestPeerLink(t *testing.T) {
	l := newPeerLink(1)
	if !l.disconnected() {
		t.Error("fresh link not disconnected")
	}
	net := transport.NewInproc(0)
	lst, err := net.Listen("x")
	if err != nil {
		t.Fatal(err)
	}
	defer lst.Close()
	go func() {
		for {
			if _, err := lst.Accept(); err != nil {
				return
			}
		}
	}()
	c1, _ := net.Dial("x")
	c2, _ := net.Dial("x")
	l.set(c1)
	conn, gen, ok := l.get()
	if !ok || conn != c1 {
		t.Fatalf("get = %v %d %v", conn, gen, ok)
	}
	// Stale fail (wrong generation) is ignored.
	l.fail(gen - 1)
	if l.disconnected() {
		t.Error("stale fail dropped the connection")
	}
	// Real fail drops it; set installs the replacement and bumps gen.
	l.fail(gen)
	if !l.disconnected() {
		t.Error("fail did not drop the connection")
	}
	l.set(c2)
	_, gen2, ok := l.get()
	if !ok || gen2 <= gen {
		t.Fatalf("generation did not advance: %d -> %d", gen, gen2)
	}
	// close unblocks waiters permanently.
	l.close()
	if _, _, ok := l.get(); ok {
		t.Error("get succeeded after close")
	}
	// Frame writes on the closed conn fail.
	if err := c2.WriteFrame([]byte("x")); !errors.Is(err, transport.ErrConnClosed) {
		t.Logf("WriteFrame after close = %v (transport-specific)", err)
	}
}
