package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"gosmr/internal/wire"
)

// TestLeaseOnAckRacesSetTopology runs lease acks against reconfigurations
// that grow the per-peer tables; under -race it proves onAck reads the
// tables' bounds under the lock that setTopology writes them under.
func TestLeaseOnAckRacesSetTopology(t *testing.T) {
	topoOf := func(n int) *wire.Topology {
		t := &wire.Topology{Epoch: int64(n), Peers: make([]string, n)}
		for i := range t.Peers {
			t.Peers[i] = fmt.Sprint("p", i)
		}
		return t
	}
	const maxN = 64
	lm := newLeaseManager(0, time.Second, 10*time.Millisecond, topoOf(3))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for n := 4; n <= maxN; n++ {
			lm.setTopology(topoOf(n))
		}
	}()
	go func() {
		defer wg.Done()
		for i := range 20 * maxN {
			peer := 1 + i%(maxN-1)
			if _, seq, ok := lm.grant(peer); ok {
				lm.onAck(peer, 1, seq)
			}
		}
	}()
	wg.Wait()
	// Past the race, an ack from a peer of the grown topology counts.
	_, seq, ok := lm.grant(maxN - 1)
	if !ok {
		t.Fatal("no grant to the last peer of the grown topology")
	}
	lm.onAck(maxN-1, 2, seq)
	lm.onAck(maxN, 2, seq) // out of range: ignored, not a panic
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if lm.ackVw[maxN-1] != 2 {
		t.Errorf("ack from peer %d recorded view %d, want 2", maxN-1, lm.ackVw[maxN-1])
	}
}
