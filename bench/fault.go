package main

import (
	"fmt"
	"sync"
	"time"
)

// The fault phase runs on write_durable in the traced run. The open-loop
// schedule keeps running while the leader is stopped, later restarted from
// its DataDir, and finally the whole cluster is stopped and rebooted. Ops
// due while no leader exists are issued and waited for like any other — the
// generator fails over the way gosmr.Client does (same ClientID and Seq on
// the new leader, so at-most-once holds) — and the run fails if any
// acknowledged write is missing at the end. Its numbers are one
// timeout-dominated sample per run, which is why none of them is an
// end-to-end metric.

const (
	faultLead    = time.Second // open-loop time before the leader stops, and between the later steps
	faultOpen    = 4500 * time.Millisecond
	faultRetryIn = 20 * time.Millisecond // a refused write is resent after this (gosmr.Client's redirect pause)
)

func runFaultPhase(m map[string]float64, s *session) error {
	g, c := s.g, s.c
	old := c.leader
	view0 := c.cores[old].View()
	g.faulting.Store(true)
	defer g.faulting.Store(false)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.runOpen(faultOpen, false)
	}()

	// 1. Stop the leader under load; find its successor; fail over.
	time.Sleep(faultLead)
	c.nodes[old].Stop()
	c.nodes[old] = nil
	if err := c.awaitLeader(10 * time.Second); err != nil {
		wg.Wait()
		return fmt.Errorf("fault phase: after stopping the leader: %w", err)
	}
	if err := g.retarget(c.leader); err != nil {
		wg.Wait()
		return err
	}

	// 2. Restart the old leader from its DataDir and time its catch-up to
	// the decision watermark the new leader had when it came back.
	time.Sleep(faultLead)
	target := c.cores[c.leader].DecidedUpTo()
	t0 := time.Now()
	if err := c.boot(old); err != nil {
		wg.Wait()
		return fmt.Errorf("fault phase: restarting replica %d: %w", old, err)
	}
	caught := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if c.cores[old].DecidedUpTo() >= target {
			caught = true
			break
		}
	}
	if !caught {
		wg.Wait()
		return fmt.Errorf("fault phase: replica %d did not catch up to instance %d", old, target)
	}
	m["core.catchup_ms"] = float64(time.Since(t0)) / 1e6
	wg.Wait()
	if err := g.firstErr(); err != nil {
		return err
	}
	m["core.view_changes"] = float64(c.cores[c.leader].View() - view0)
	m["fd.failover_ms"] = nsToMs(longestGap(g.takeFaultDone()))

	// 3. Stop everything and reboot from disk; every acknowledged write
	// must still be there.
	g.disconnect()
	c.stopNodes()
	var mu sync.Mutex
	var slowest time.Duration
	var bootErr error
	for i := range replicas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			err := c.boot(i)
			d := time.Since(t0)
			mu.Lock()
			slowest = max(slowest, d)
			if err != nil && bootErr == nil {
				bootErr = err
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if bootErr != nil {
		return fmt.Errorf("fault phase: rebooting: %w", bootErr)
	}
	m["core.restart_replay_ms"] = float64(slowest) / 1e6
	if err := c.awaitLeader(10 * time.Second); err != nil {
		return fmt.Errorf("fault phase: after the reboot: %w", err)
	}
	// Booted replicas re-execute their decided suffix on top of the newest
	// snapshot; awaitState gives that a moment before judging the state.
	if err := g.awaitState(10 * time.Second); err != nil {
		return fmt.Errorf("fault phase: acknowledged write missing after the reboot: %w", err)
	}
	return nil
}

// retarget moves both connections to replica target and resends every
// outstanding op there as an ordered request.
func (g *gen) retarget(target int) error {
	g.stopping.Store(true)
	for i := range g.conns {
		if gc := g.conns[i].Swap(nil); gc != nil {
			close(gc.quit)
			_ = gc.fc.Close()
		}
	}
	g.wg.Wait()
	g.stopping.Store(false)
	if err := g.dial([numConns]int{target, target}); err != nil {
		return err
	}
	for _, vc := range g.vcs {
		vc.mu.Lock()
		if vc.busy {
			g.resendOrdered(vc, vc.home)
		}
		vc.mu.Unlock()
	}
	return nil
}

// retryLater resends vc's op seq after a pause, if it is still outstanding:
// the replica behind the connection refused it (no established leader yet).
func (g *gen) retryLater(vc *vclient, seq uint64) {
	time.AfterFunc(faultRetryIn, func() {
		vc.mu.Lock()
		if vc.busy && vc.seq == seq {
			g.resendOrdered(vc, vc.home)
		}
		vc.mu.Unlock()
	})
}

func (g *gen) takeFaultDone() []int64 {
	g.faultMu.Lock()
	defer g.faultMu.Unlock()
	d := g.faultDone
	g.faultDone = nil
	return d
}

// longestGap returns the longest interval between consecutive completion
// times, i.e. how long clients went unserved across the leader's stop.
func longestGap(times []int64) int64 {
	sortInt64(times)
	var gap int64
	for i := 1; i < len(times); i++ {
		gap = max(gap, times[i]-times[i-1])
	}
	return gap
}
