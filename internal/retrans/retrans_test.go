package retrans

import (
	"sync/atomic"
	"testing"
	"time"

	"gosmr/internal/profiling"
)

func TestRetransmitsUntilCancel(t *testing.T) {
	r := New(Options{Period: 10 * time.Millisecond, MaxPeriod: 10 * time.Millisecond})
	defer r.Stop()
	var n atomic.Int32
	h := r.Add(func() { n.Add(1) })
	deadline := time.Now().Add(2 * time.Second)
	for n.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n.Load() < 3 {
		t.Fatalf("resends = %d, want >= 3", n.Load())
	}
	h.Cancel()
	if !h.Cancelled() {
		t.Error("Cancelled = false after Cancel")
	}
	after := n.Load()
	time.Sleep(50 * time.Millisecond)
	// At most one in-flight send can race the cancel.
	if n.Load() > after+1 {
		t.Errorf("resends after Cancel: %d -> %d", after, n.Load())
	}
}

func TestCancelBeforeFirstFire(t *testing.T) {
	r := New(Options{Period: 20 * time.Millisecond})
	defer r.Stop()
	var n atomic.Int32
	h := r.Add(func() { n.Add(1) })
	h.Cancel()
	time.Sleep(60 * time.Millisecond)
	if n.Load() != 0 {
		t.Errorf("cancelled message fired %d times", n.Load())
	}
	if r.Pending() != 0 {
		t.Errorf("Pending = %d, want 0 after lazy removal", r.Pending())
	}
}

func TestBackoff(t *testing.T) {
	r := New(Options{Period: 5 * time.Millisecond, MaxPeriod: 40 * time.Millisecond})
	defer r.Stop()
	var times []time.Time
	done := make(chan struct{})
	var mu atomic.Int32
	r.Add(func() {
		times = append(times, time.Now()) // only the retransmitter goroutine appends
		if mu.Add(1) == 4 {
			close(done)
		}
	})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for 4 resends")
	}
	// Gaps must be non-decreasing-ish (exponential backoff): gap3 > gap1.
	g1 := times[1].Sub(times[0])
	g3 := times[3].Sub(times[2])
	if g3 < g1 {
		t.Errorf("backoff not increasing: gap1=%v gap3=%v", g1, g3)
	}
}

func TestManyMessagesOrdering(t *testing.T) {
	r := New(Options{Period: 15 * time.Millisecond})
	defer r.Stop()
	var n atomic.Int32
	handles := make([]*Handle, 50)
	for i := range handles {
		handles[i] = r.Add(func() { n.Add(1) })
	}
	// Cancel all but a few: only the survivors should fire.
	for i, h := range handles {
		if i%10 != 0 {
			h.Cancel()
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for n.Load() < 5 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := n.Load(); got < 5 {
		t.Errorf("fired = %d, want >= 5 (the survivors)", got)
	}
	if got := r.Resends(); got < 5 {
		t.Errorf("Resends = %d, want >= 5", got)
	}
}

func TestStopIdempotentAndUnblocks(t *testing.T) {
	th := profiling.NewRegistry().Register("Retransmitter")
	r := New(Options{Period: time.Hour, Thread: th})
	r.Add(func() {})
	done := make(chan struct{})
	go func() {
		r.Stop()
		r.Stop() // idempotent
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Stop did not return")
	}
}

func TestAddAfterEarlierDeadlineWakes(t *testing.T) {
	r := New(Options{Period: 30 * time.Millisecond})
	defer r.Stop()
	// First entry far in the future relative to test, then a near one: the
	// near one must still fire promptly (wake channel re-arms the timer).
	var slow, fast atomic.Int32
	h1 := r.Add(func() { slow.Add(1) })
	defer h1.Cancel()
	h2 := r.Add(func() { fast.Add(1) })
	defer h2.Cancel()
	deadline := time.Now().Add(time.Second)
	for fast.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if fast.Load() == 0 {
		t.Error("second entry never fired")
	}
}

// TestAddAfterStopReturnsCancelledHandle is the regression test for the
// shutdown race: an Add that loses the race with Stop used to park its
// handle on a heap no goroutine would ever drain — "scheduled" forever,
// with Pending() lying about it. Post-Stop Adds must come back already
// cancelled, never fire, and leave nothing pending.
func TestAddAfterStopReturnsCancelledHandle(t *testing.T) {
	r := New(Options{Period: time.Millisecond})
	r.Stop()

	var fired atomic.Int64
	h := r.Add(func() { fired.Add(1) })
	if h == nil {
		t.Fatal("Add after Stop returned nil handle")
	}
	if !h.Cancelled() {
		t.Error("Add after Stop returned a live handle")
	}
	if got := r.Pending(); got != 0 {
		t.Errorf("Pending() = %d after post-Stop Add, want 0", got)
	}
	time.Sleep(5 * time.Millisecond)
	if got := fired.Load(); got != 0 {
		t.Errorf("post-Stop Add fired %d times", got)
	}
	// Cancel stays idempotent on the dead handle.
	h.Cancel()
	if !h.Cancelled() {
		t.Error("Cancel lost the cancelled state")
	}
}

func BenchmarkRetransmitterAddCancel(b *testing.B) {
	r := New(Options{Period: time.Hour})
	defer r.Stop()
	for b.Loop() {
		h := r.Add(func() {})
		h.Cancel()
	}
}
