package fd

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gosmr/internal/wire"
)

func TestLeaderSendsHeartbeatsWhenIdle(t *testing.T) {
	var mu sync.Mutex
	sent := make(map[int]int)
	d := New(Options{
		ID: 0, Topology: holeFree(3),
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectTimeout:    time.Hour,
		SendHeartbeat: func(peer int) {
			mu.Lock()
			sent[peer]++
			mu.Unlock()
		},
	})
	defer d.Stop()
	d.UpdateView(0) // view 0: leader = 0 = self
	time.Sleep(80 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	for _, peer := range []int{1, 2} {
		if sent[peer] < 2 {
			t.Errorf("heartbeats to peer %d = %d, want >= 2", peer, sent[peer])
		}
	}
	if sent[0] != 0 {
		t.Errorf("sent %d heartbeats to self", sent[0])
	}
}

func TestLeaderSkipsBusyConnections(t *testing.T) {
	var count atomic.Int32
	d := New(Options{
		ID: 0, Topology: holeFree(2),
		HeartbeatInterval: 20 * time.Millisecond,
		SuspectTimeout:    time.Hour,
		SendHeartbeat:     func(int) { count.Add(1) },
	})
	defer d.Stop()
	d.UpdateView(0)
	// Keep "sending" traffic to peer 1: no heartbeats needed.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(2 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				d.TouchSent(1)
			}
		}
	}()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	if got := count.Load(); got > 1 {
		t.Errorf("heartbeats on busy connection = %d, want <= 1", got)
	}
}

func TestFollowerSuspectsSilentLeader(t *testing.T) {
	var suspected atomic.Int32
	suspected.Store(-1)
	d := New(Options{
		ID: 1, Topology: holeFree(3),
		HeartbeatInterval: 5 * time.Millisecond,
		SuspectTimeout:    30 * time.Millisecond,
		Suspect:           func(v wire.View) { suspected.Store(int32(v)) },
	})
	defer d.Stop()
	d.UpdateView(0) // leader = replica 0, which stays silent
	deadline := time.Now().Add(time.Second)
	for suspected.Load() < 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if suspected.Load() != 0 {
		t.Fatalf("suspected view = %d, want 0", suspected.Load())
	}
}

func TestFollowerDoesNotSuspectLiveLeader(t *testing.T) {
	var count atomic.Int32
	d := New(Options{
		ID: 1, Topology: holeFree(3),
		HeartbeatInterval: 5 * time.Millisecond,
		SuspectTimeout:    30 * time.Millisecond,
		Suspect:           func(wire.View) { count.Add(1) },
	})
	defer d.Stop()
	d.UpdateView(0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(5 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				d.TouchRecv(0) // leader traffic keeps arriving
			}
		}
	}()
	time.Sleep(120 * time.Millisecond)
	close(stop)
	wg.Wait()
	if count.Load() != 0 {
		t.Errorf("suspected live leader %d times", count.Load())
	}
}

func TestSuspectOncePerView(t *testing.T) {
	var count atomic.Int32
	d := New(Options{
		ID: 1, Topology: holeFree(3),
		HeartbeatInterval: 2 * time.Millisecond,
		SuspectTimeout:    10 * time.Millisecond,
		Suspect:           func(wire.View) { count.Add(1) },
	})
	defer d.Stop()
	d.UpdateView(0)
	time.Sleep(100 * time.Millisecond)
	if got := count.Load(); got != 1 {
		t.Errorf("suspect callbacks = %d, want exactly 1", got)
	}
	// Moving to a new view re-arms suspicion (view 3: leader = 0 again).
	d.UpdateView(3)
	if d.View() != 3 {
		t.Errorf("View = %d, want 3", d.View())
	}
	deadline := time.Now().Add(time.Second)
	for count.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := count.Load(); got != 2 {
		t.Errorf("suspect callbacks after view change = %d, want 2", got)
	}
}

func TestUpdateViewGrantsGracePeriod(t *testing.T) {
	var count atomic.Int32
	d := New(Options{
		ID: 1, Topology: holeFree(3),
		HeartbeatInterval: 2 * time.Millisecond,
		SuspectTimeout:    50 * time.Millisecond,
		Suspect:           func(wire.View) { count.Add(1) },
	})
	defer d.Stop()
	d.UpdateView(0)
	time.Sleep(30 * time.Millisecond)
	d.UpdateView(2) // new leader gets a fresh timeout
	time.Sleep(20 * time.Millisecond)
	if count.Load() != 0 {
		t.Errorf("suspected %d times before grace period elapsed", count.Load())
	}
}

func TestTouchOutOfRangeIsSafe(t *testing.T) {
	d := New(Options{ID: 0, Topology: holeFree(2), SuspectTimeout: time.Hour})
	defer d.Stop()
	d.TouchRecv(-1)
	d.TouchRecv(99)
	d.TouchSent(-1)
	d.TouchSent(99)
}

// holeFree returns an epoch-0 topology of n replicas.
func holeFree(n int) *wire.Topology {
	t := &wire.Topology{Peers: make([]string, n)}
	for i := range t.Peers {
		t.Peers[i] = "r" + string(rune('0'+i))
	}
	return t
}

func TestLeaderSkipsRemovedPeers(t *testing.T) {
	var mu sync.Mutex
	sent := make(map[int]int)
	d := New(Options{
		ID:                0,
		Topology:          &wire.Topology{Epoch: 1, Peers: []string{"a", "", "c"}},
		HeartbeatInterval: 5 * time.Millisecond,
		SuspectTimeout:    time.Hour,
		SendHeartbeat: func(peer int) {
			mu.Lock()
			sent[peer]++
			mu.Unlock()
		},
	})
	defer d.Stop()
	d.UpdateView(0)
	time.Sleep(40 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if sent[1] != 0 || sent[2] == 0 {
		t.Errorf("heartbeats = %v, want some to 2 and none to the removed 1", sent)
	}
}
