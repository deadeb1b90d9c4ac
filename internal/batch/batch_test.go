package batch

import (
	"testing"
	"time"

	"gosmr/internal/wire"
)

func req(payload int) *wire.ClientRequest {
	return &wire.ClientRequest{ClientID: 1, Seq: 1, Payload: make([]byte, payload)}
}

func TestDefaults(t *testing.T) {
	b := NewBuilder(Policy{})
	if p := b.Policy(); p.MaxBytes != DefaultMaxBytes || p.MaxDelay != DefaultMaxDelay {
		t.Errorf("defaulted policy = %+v", p)
	}
}

func TestAddUntilFull(t *testing.T) {
	// 128-byte requests, 1300-byte budget: like the paper's workload, about
	// 8-9 requests fit ((1300-4)/(128+20) = 8.7).
	b := NewBuilder(Policy{MaxBytes: 1300})
	n := 0
	for !b.Add(req(128)) {
		n++
		if n > 100 {
			t.Fatal("batch never filled")
		}
	}
	total := n + 1
	if total < 8 || total > 9 {
		t.Errorf("batch holds %d requests, want 8-9", total)
	}
	enc := b.Flush()
	if len(enc) < 1300-148 || len(enc) > 1300+148 {
		t.Errorf("encoded size = %d, want ~1300", len(enc))
	}
	if b.Len() != 0 || b.Bytes() != wire.BatchOverhead {
		t.Errorf("after Flush: Len %d Bytes %d", b.Len(), b.Bytes())
	}
	reqs, err := wire.DecodeBatch(enc)
	if err != nil || len(reqs) != total {
		t.Errorf("decode: %d reqs err %v, want %d", len(reqs), err, total)
	}
}

func TestAddContractAtTheCap(t *testing.T) {
	// Add never refuses: an oversized request joins an empty batch, marks it
	// full, and travels alone.
	b := NewBuilder(Policy{MaxBytes: 100})
	if full := b.Add(req(500)); !full {
		t.Error("oversized request did not mark batch full")
	}
	if reqs, err := wire.DecodeBatch(b.Flush()); err != nil || len(reqs) != 1 {
		t.Errorf("oversized batch decodes to %d requests, err %v", len(reqs), err)
	}
	// A caller that flushes when Add says so is over the cap by at most the
	// request that crossed it.
	for range 10 {
		last := 0
		for !b.Add(req(30)) {
			last = b.Bytes()
		}
		if last >= 100 || b.Bytes() < 100 {
			t.Fatalf("full reported at %d bytes, previous Add left %d (cap 100)", b.Bytes(), last)
		}
		b.Flush()
	}
}

func TestFlushEmptyReturnsNil(t *testing.T) {
	b := NewBuilder(Policy{})
	if got := b.Flush(); got != nil {
		t.Errorf("Flush on empty = %v, want nil", got)
	}
}

func TestDelayClockRestartsPerBatch(t *testing.T) {
	b := NewBuilder(Policy{MaxDelay: 50 * time.Millisecond})
	b.Add(req(4))
	first := b.Deadline()
	b.Flush()
	time.Sleep(5 * time.Millisecond)
	b.Add(req(4))
	if !b.Deadline().After(first) {
		t.Error("second batch deadline did not restart")
	}
}

func TestIdleThenBurstStartsDelayClockAtFirstAdd(t *testing.T) {
	// Regression: an idle stretch before the first request of a batch must
	// not count against the batch's MaxDelay — the flush clock starts at
	// the first appended request, never at builder creation or at the
	// previous flush.
	const delay = 50 * time.Millisecond
	b := NewBuilder(Policy{MaxBytes: 1 << 20, MaxDelay: delay})

	// While empty there is no deadline to expire against.
	if !b.Deadline().After(time.Now().Add(time.Hour)) {
		t.Error("empty builder has a near deadline; idle time would eat the delay budget")
	}

	// Builder sits idle, then a burst arrives: the deadline must be a full
	// MaxDelay away from the first Add, not from creation.
	created := time.Now()
	time.Sleep(20 * time.Millisecond)
	before := time.Now()
	b.Add(req(8))
	b.Add(req(8))
	if dl := b.Deadline(); dl.Before(before.Add(delay)) {
		t.Errorf("deadline %v is before firstAdd+MaxDelay %v (clock started too early, creation was %v)",
			dl, before.Add(delay), created)
	}

	// After a flush the clock resets again: another idle stretch, another
	// burst, and the second batch gets its own full delay budget.
	b.Flush()
	time.Sleep(20 * time.Millisecond)
	before = time.Now()
	b.Add(req(8))
	if dl := b.Deadline(); dl.Before(before.Add(delay)) {
		t.Errorf("post-flush deadline %v is before firstAdd+MaxDelay %v", dl, before.Add(delay))
	}
}
