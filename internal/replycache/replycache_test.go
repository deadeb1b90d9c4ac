package replycache

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"gosmr/internal/profiling"
)

// caches returns the implementations under the shared table tests.
func caches() map[string]func() *Sharded {
	return map[string]func() *Sharded{"sharded": NewSharded}
}

// coarse is the single-lock design the paper measured before sharding: one
// lock around the whole table. It exists only as the contention baseline.
type coarse struct {
	mu profiling.Mutex
	c  *Sharded
}

func (c *coarse) Lookup(th *profiling.Thread, client, seq uint64) ([]byte, Status) {
	c.mu.Lock(th)
	defer c.mu.Unlock()
	return c.c.Lookup(nil, client, seq)
}

func (c *coarse) Update(th *profiling.Thread, client, seq uint64, reply []byte) {
	c.mu.Lock(th)
	defer c.mu.Unlock()
	c.c.Update(nil, client, seq, reply)
}

func TestStatusString(t *testing.T) {
	tests := []struct {
		s    Status
		want string
	}{
		{StatusNew, "new"}, {StatusCached, "cached"}, {StatusStale, "stale"}, {Status(0), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("Status(%d) = %q, want %q", tt.s, got, tt.want)
		}
	}
}

func TestLookupClassification(t *testing.T) {
	for name, mk := range caches() {
		t.Run(name, func(t *testing.T) {
			c := mk()
			if _, st := c.Lookup(nil, 7, 1); st != StatusNew {
				t.Errorf("unknown client = %v, want new", st)
			}
			c.Update(nil, 7, 5, []byte("r5"))
			if reply, st := c.Lookup(nil, 7, 5); st != StatusCached || string(reply) != "r5" {
				t.Errorf("same seq = %v %q, want cached r5", st, reply)
			}
			if _, st := c.Lookup(nil, 7, 4); st != StatusStale {
				t.Errorf("old seq = %v, want stale", st)
			}
			if _, st := c.Lookup(nil, 7, 6); st != StatusNew {
				t.Errorf("new seq = %v, want new", st)
			}
		})
	}
}

func TestUpdateMonotonic(t *testing.T) {
	for name, mk := range caches() {
		t.Run(name, func(t *testing.T) {
			c := mk()
			c.Update(nil, 1, 10, []byte("ten"))
			c.Update(nil, 1, 3, []byte("three")) // stale update ignored
			if reply, st := c.Lookup(nil, 1, 10); st != StatusCached || string(reply) != "ten" {
				t.Errorf("after stale update = %v %q, want cached ten", st, reply)
			}
			c.Update(nil, 1, 11, []byte("eleven"))
			if _, st := c.Lookup(nil, 1, 10); st != StatusStale {
				t.Errorf("overwritten seq = %v, want stale", st)
			}
		})
	}
}

func TestLen(t *testing.T) {
	for name, mk := range caches() {
		t.Run(name, func(t *testing.T) {
			c := mk()
			for i := range uint64(100) {
				c.Update(nil, i, 1, nil)
			}
			if c.Len() != 100 {
				t.Errorf("Len = %d, want 100", c.Len())
			}
		})
	}
}

func TestMarshalRestore(t *testing.T) {
	for srcName, mkSrc := range caches() {
		for dstName, mkDst := range caches() {
			t.Run(srcName+"_to_"+dstName, func(t *testing.T) {
				src := mkSrc()
				for i := range uint64(50) {
					src.Update(nil, i, i+1, []byte(fmt.Sprintf("reply-%d", i)))
				}
				dst := mkDst()
				dst.Update(nil, 999, 1, []byte("stale-state")) // must be replaced
				if err := dst.Restore(src.Marshal()); err != nil {
					t.Fatal(err)
				}
				if dst.Len() != 50 {
					t.Fatalf("restored Len = %d, want 50", dst.Len())
				}
				for i := range uint64(50) {
					reply, st := dst.Lookup(nil, i, i+1)
					if st != StatusCached || string(reply) != fmt.Sprintf("reply-%d", i) {
						t.Errorf("client %d = %v %q", i, st, reply)
					}
				}
				if _, st := dst.Lookup(nil, 999, 1); st != StatusNew {
					t.Errorf("pre-restore state survived: %v", st)
				}
			})
		}
	}
}

func TestRestoreCorrupt(t *testing.T) {
	for name, mk := range caches() {
		t.Run(name, func(t *testing.T) {
			c := mk()
			for _, b := range [][]byte{nil, {1}, {1, 0, 0, 0}, {1, 0, 0, 0, 9, 9, 9}} {
				if err := c.Restore(b); err == nil {
					t.Errorf("Restore(%v) succeeded", b)
				}
			}
			// Trailing garbage after a valid entry.
			good := NewSharded()
			good.Update(nil, 1, 1, []byte("x"))
			if err := c.Restore(append(good.Marshal(), 0xFF)); err == nil {
				t.Error("Restore with trailing bytes succeeded")
			}
		})
	}
}

// TestRestoreHugeCountRejectedBeforeAlloc feeds blobs whose length prefix
// claims up to 2^32-1 entries backed by almost no bytes. The count must be
// rejected by the bounds check up front — pre-allocating a map for it would
// balloon memory before the per-entry parsing ever failed. Run with a tight
// memory ceiling this is the regression test for the untrusted-length
// guard; here we assert rejection and that allocations stay sane.
func TestRestoreHugeCountRejectedBeforeAlloc(t *testing.T) {
	for name, mk := range caches() {
		t.Run(name, func(t *testing.T) {
			for _, n := range []uint32{21, 1 << 20, 1 << 31, ^uint32(0)} {
				blob := binary.LittleEndian.AppendUint32(nil, n)
				blob = append(blob, make([]byte, 20)...) // room for one entry at most
				allocs := testing.AllocsPerRun(10, func() {
					c := mk()
					if err := c.Restore(blob); err == nil {
						t.Fatalf("Restore with claimed count %d succeeded", n)
					}
				})
				// A guarded failure allocates the cache shell and little
				// else; a 2^32-entry map pre-allocation would dwarf this.
				if allocs > 100 {
					t.Errorf("count %d: %v allocations before rejection", n, allocs)
				}
			}
		})
	}
}

func TestConcurrentAccess(t *testing.T) {
	for name, mk := range caches() {
		t.Run(name, func(t *testing.T) {
			c := mk()
			var wg sync.WaitGroup
			for w := range 8 {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := range uint64(500) {
						client := i % 32
						c.Update(nil, client, i, []byte{byte(w)})
						c.Lookup(nil, client, i)
					}
				}(w)
			}
			wg.Wait()
			if c.Len() != 32 {
				t.Errorf("Len = %d, want 32", c.Len())
			}
		})
	}
}

func TestShardedContentionLowerThanCoarse(t *testing.T) {
	// Structural check of the paper's ablation: with many threads hammering
	// distinct clients, the coarse cache serializes everything while the
	// sharded one mostly avoids lock overlap. We assert the sharded cache
	// accrues no more blocked time than the coarse one (timing-based, so
	// only a weak inequality with slack is asserted).
	measure := func(c interface {
		Lookup(th *profiling.Thread, client, seq uint64) ([]byte, Status)
		Update(th *profiling.Thread, client, seq uint64, reply []byte)
	}) (blocked int64) {
		reg := profiling.NewRegistry()
		var wg sync.WaitGroup
		for w := range 8 {
			th := reg.Register(fmt.Sprintf("w%d", w))
			th.Transition(profiling.StateBusy)
			wg.Add(1)
			go func(w int, th *profiling.Thread) {
				defer wg.Done()
				for i := range uint64(3000) {
					client := uint64(w)*1000 + i%100
					c.Update(th, client, i, nil)
					c.Lookup(th, client, i)
				}
			}(w, th)
		}
		wg.Wait()
		return int64(reg.TotalBlocked())
	}
	sharded := measure(NewSharded())
	single := measure(&coarse{c: NewSharded()})
	if sharded > single*2+int64(1e7) {
		t.Errorf("sharded blocked %d > coarse blocked %d: sharding made contention worse", sharded, single)
	}
}

// TestPropertyAtMostOnce checks the at-most-once invariant: for any update
// sequence, Lookup(client, seq) returns Cached only for the highest seq
// updated, and the reply it returns is the one stored with that seq.
func TestPropertyAtMostOnce(t *testing.T) {
	f := func(seqs []uint8) bool {
		c := NewSharded()
		var maxSeq uint64
		for _, s := range seqs {
			seq := uint64(s)
			c.Update(nil, 42, seq, []byte{s})
			if seq > maxSeq {
				maxSeq = seq
			}
		}
		if len(seqs) == 0 {
			_, st := c.Lookup(nil, 42, 0)
			return st == StatusNew
		}
		reply, st := c.Lookup(nil, 42, maxSeq)
		if st != StatusCached || len(reply) != 1 || uint64(reply[0]) != maxSeq {
			return false
		}
		_, st = c.Lookup(nil, 42, maxSeq+1)
		return st == StatusNew
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMarshalRoundTrip checks snapshot round-trips for arbitrary
// contents.
func TestPropertyMarshalRoundTrip(t *testing.T) {
	f := func(clients []uint64, reply []byte) bool {
		src := NewSharded()
		for i, cl := range clients {
			src.Update(nil, cl, uint64(i+1), reply)
		}
		dst := NewSharded()
		if err := dst.Restore(src.Marshal()); err != nil {
			return false
		}
		return dst.Len() == src.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
