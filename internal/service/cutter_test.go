package service

import (
	"bytes"
	"fmt"
	"testing"

	"gosmr/internal/snapshot"
)

// fullCut drains a full cut at the given cap into a Gen.
func fullCut(t *testing.T, s *KV, maxBytes int) snapshot.Gen {
	t.Helper()
	src, full, err := s.CutSnapshot(true)
	if err != nil {
		t.Fatal(err)
	}
	if !full {
		t.Fatal("full cut reported as delta")
	}
	chunks, err := snapshot.Drain(src, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return snapshot.Gen{Full: true, Chunks: chunks}
}

func deltaCut(t *testing.T, s *KV, maxBytes int) snapshot.Gen {
	t.Helper()
	src, full, err := s.CutSnapshot(false)
	if err != nil {
		t.Fatal(err)
	}
	if full {
		t.Fatal("delta cut promoted to full")
	}
	chunks, err := snapshot.Drain(src, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return snapshot.Gen{Full: false, Chunks: chunks}
}

// canon returns the canonical sorted blob — the cross-replica comparison
// currency the determinism suites already use.
func canon(t *testing.T, s *KV) []byte {
	t.Helper()
	b, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestKVCutterFullRoundTrip(t *testing.T) {
	s := NewKV()
	for i := range 100 {
		s.Execute(EncodePut(fmt.Sprintf("key-%03d", i), bytes.Repeat([]byte{byte(i)}, 50)))
	}
	gen := fullCut(t, s, 256)
	if len(gen.Chunks) < 2 {
		t.Fatalf("expected multiple chunks at a 256-byte cap, got %d", len(gen.Chunks))
	}
	for i, c := range gen.Chunks {
		// One entry here is ~64 bytes, far under the cap, so every chunk
		// must respect it strictly.
		if len(c) > 256 {
			t.Errorf("chunk %d is %d bytes, cap 256", i, len(c))
		}
	}
	s2 := NewKV()
	if err := s2.RestoreChunks([]snapshot.Gen{gen}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canon(t, s), canon(t, s2)) {
		t.Fatal("restored state differs from original")
	}
}

func TestKVCutterOversizedEntryExceedsCapAlone(t *testing.T) {
	s := NewKV()
	big := bytes.Repeat([]byte{7}, 1000)
	s.Execute(EncodePut("big", big))
	s.Execute(EncodePut("a", []byte("x")))
	gen := fullCut(t, s, 64)
	// The oversized entry must land in a chunk of its own; every other
	// chunk respects the cap.
	over := 0
	for _, c := range gen.Chunks {
		if len(c) > 64 {
			over++
			n, _, _ := takeU32(c)
			if n != 1 {
				t.Errorf("oversized chunk holds %d entries, want exactly 1", n)
			}
		}
	}
	if over != 1 {
		t.Errorf("%d oversized chunks, want 1", over)
	}
	s2 := NewKV()
	if err := s2.RestoreChunks([]snapshot.Gen{gen}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canon(t, s), canon(t, s2)) {
		t.Fatal("restored state differs")
	}
}

func TestKVCutterCOWDrainSeesCutState(t *testing.T) {
	s := NewKV()
	for i := range 50 {
		s.Execute(EncodePut(fmt.Sprintf("k%02d", i), []byte("before")))
	}
	src, _, err := s.CutSnapshot(true)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate heavily after the mark, before draining a single chunk:
	// overwrite half the keys, delete some, add new ones. None of it may
	// leak into the cut.
	for i := range 25 {
		s.Execute(EncodePut(fmt.Sprintf("k%02d", i), []byte("after")))
	}
	s.Execute(EncodeDel("k30"))
	s.Execute(EncodePut("new-key", []byte("post-cut")))
	chunks, err := snapshot.Drain(src, 128)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewKV()
	if err := s2.RestoreChunks([]snapshot.Gen{{Full: true, Chunks: chunks}}); err != nil {
		t.Fatal(err)
	}
	want := NewKV()
	for i := range 50 {
		want.Execute(EncodePut(fmt.Sprintf("k%02d", i), []byte("before")))
	}
	if !bytes.Equal(canon(t, want), canon(t, s2)) {
		t.Fatal("drain observed post-cut mutations")
	}
	// And the live store kept the post-cut state.
	if st, v := DecodeReply(s.Execute(EncodeGet("k00"))); st != KVOK || string(v) != "after" {
		t.Fatalf("live store lost post-cut write: %d %q", st, v)
	}
	if st, _ := DecodeReply(s.Execute(EncodeGet("k30"))); st != KVNotFound {
		t.Fatal("live store resurrected deleted key")
	}
}

func TestKVCutterDeltaTombstones(t *testing.T) {
	s := NewKV()
	s.Execute(EncodePut("keep", []byte("v")))
	s.Execute(EncodePut("gone", []byte("v")))
	base := fullCut(t, s, 1<<20)

	s.Execute(EncodeDel("gone"))
	s.Execute(EncodePut("added", []byte("w")))
	delta := deltaCut(t, s, 1<<20)

	s2 := NewKV()
	if err := s2.RestoreChunks([]snapshot.Gen{base, delta}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canon(t, s), canon(t, s2)) {
		t.Fatal("base+delta fold differs from live state")
	}
	if st, _ := DecodeReply(s2.Execute(EncodeGet("gone"))); st != KVNotFound {
		t.Fatal("tombstone did not delete the key on restore")
	}
}

// TestKVCutterDeltaBytesScaleWithChurn is the delta acceptance criterion:
// with k% of keys mutated between cuts, the bytes a delta generation
// persists scale with k, not with total state size — measured at two churn
// levels against the same 2000-key store.
func TestKVCutterDeltaBytesScaleWithChurn(t *testing.T) {
	const keys = 2000
	val := bytes.Repeat([]byte{42}, 100)
	churnBytes := func(churnPct int) (delta, full int) {
		s := NewKV()
		for i := range keys {
			s.Execute(EncodePut(fmt.Sprintf("key-%06d", i), val))
		}
		base := fullCut(t, s, 4096)
		for i := 0; i < keys*churnPct/100; i++ {
			s.Execute(EncodePut(fmt.Sprintf("key-%06d", i), val))
		}
		d := deltaCut(t, s, 4096)
		return d.Bytes(), base.Bytes()
	}

	d1, full := churnBytes(1)
	d10, _ := churnBytes(10)
	if d1 == 0 || d10 == 0 {
		t.Fatalf("empty deltas: %d, %d", d1, d10)
	}
	// 1% churn must cost ~1% of a full snapshot (loose 3× bound for
	// per-chunk headers), and 10× the churn must cost ~10× the bytes.
	if d1*100 > full*3 {
		t.Errorf("1%% churn delta = %d bytes vs full %d — not proportional to churn", d1, full)
	}
	if ratio := float64(d10) / float64(d1); ratio < 5 || ratio > 20 {
		t.Errorf("10%%/1%% delta byte ratio = %.1f, want ≈10", ratio)
	}
}

// TestKVCutterDeterministicChunks: two stores that executed the same
// commands — in different interleavings of non-conflicting keys — must cut
// byte-identical chunk sequences. That is what makes chunk files and
// transfer images comparable across replicas.
func TestKVCutterDeterministicChunks(t *testing.T) {
	build := func(reverse bool) *KV {
		s := NewKV()
		n := 100
		for i := range n {
			j := i
			if reverse {
				j = n - 1 - i
			}
			s.Execute(EncodePut(fmt.Sprintf("k%03d", j), bytes.Repeat([]byte{byte(j)}, j%60)))
		}
		return s
	}
	a, b := build(false), build(true)
	ga := fullCut(t, a, 300)
	gb := fullCut(t, b, 300)
	if len(ga.Chunks) != len(gb.Chunks) {
		t.Fatalf("chunk counts differ: %d vs %d", len(ga.Chunks), len(gb.Chunks))
	}
	for i := range ga.Chunks {
		if !bytes.Equal(ga.Chunks[i], gb.Chunks[i]) {
			t.Fatalf("chunk %d differs between execution orders", i)
		}
	}
	// Same for a delta after divergent-order churn.
	for _, s := range []*KV{a, b} {
		for i := range 30 {
			s.Execute(EncodePut(fmt.Sprintf("k%03d", i*3), []byte("churn")))
		}
	}
	da, db := deltaCut(t, a, 300), deltaCut(t, b, 300)
	if da.Full != db.Full || len(da.Chunks) != len(db.Chunks) {
		t.Fatalf("delta generations differ between execution orders: %d vs %d chunks", len(da.Chunks), len(db.Chunks))
	}
	for i := range da.Chunks {
		if !bytes.Equal(da.Chunks[i], db.Chunks[i]) {
			t.Fatalf("delta chunk %d differs between execution orders", i)
		}
	}
}

func TestKVCutterAbandonedCutRestoresDirtySet(t *testing.T) {
	s := NewKV()
	s.Execute(EncodePut("a", []byte("1")))
	fullCut(t, s, 1<<20) // baseline; dirty now empty

	s.Execute(EncodePut("b", []byte("2")))
	src, _, err := s.CutSnapshot(false)
	if err != nil {
		t.Fatal(err)
	}
	src.Close() // abandon before draining anything

	// The abandoned delta's keys must reappear in the next delta,
	// otherwise "b" would never be persisted.
	d := deltaCut(t, s, 1<<20)
	s2 := NewKV()
	if err := s2.RestoreChunks([]snapshot.Gen{{Full: true, Chunks: nil}, d}); err != nil {
		t.Fatal(err)
	}
	if st, v := DecodeReply(s2.Execute(EncodeGet("b"))); st != KVOK || string(v) != "2" {
		t.Fatalf("abandoned cut lost key b: %d %q", st, v)
	}
}

func TestKVCutterSecondCutWhileDraining(t *testing.T) {
	s := NewKV()
	s.Execute(EncodePut("a", []byte("1")))
	src, _, err := s.CutSnapshot(true)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.CutSnapshot(true); err == nil {
		t.Fatal("second cut during drain succeeded")
	}
	if _, err := snapshot.Drain(src, 1<<20); err != nil {
		t.Fatal(err)
	}
	src2, _, err := s.CutSnapshot(true)
	if err != nil {
		t.Fatalf("cut after drain completed: %v", err)
	}
	src2.Close()
}

// TestKVRestoreCorruptCountBounded is the satellite fix: a corrupt blob
// claiming 2^32-ish entries must be rejected by the length check, not
// pre-allocate a giant map. The alloc bound proves the map was never sized
// from the untrusted count.
func TestKVRestoreCorruptCountBounded(t *testing.T) {
	blob := appendU32(nil, 1<<31) // claims 2 billion entries, carries none
	blob = append(blob, 1, 2, 3)
	s := NewKV()
	allocs := testing.AllocsPerRun(10, func() {
		if err := s.Restore(blob); err == nil {
			t.Fatal("corrupt count accepted")
		}
	})
	// Rejecting the blob costs a handful of allocations (the wrapped
	// error); sizing a map for 2^31 entries would cost many orders of
	// magnitude more memory than this bound allows.
	if allocs > 10 {
		t.Errorf("Restore of corrupt blob did %.0f allocs — count not validated before allocation", allocs)
	}

	// Same bound for a corrupt chunk count on the chunked path.
	chunk := appendU32(nil, 1<<31)
	chunk = append(chunk, 9, 9, 9)
	allocs = testing.AllocsPerRun(10, func() {
		if err := s.RestoreChunks([]snapshot.Gen{{Full: true, Chunks: [][]byte{chunk}}}); err == nil {
			t.Fatal("corrupt chunk count accepted")
		}
	})
	if allocs > 10 {
		t.Errorf("RestoreChunks of corrupt chunk did %.0f allocs", allocs)
	}
}

func TestKVRestoreChunksRejectsDeltaOnlyChain(t *testing.T) {
	s := NewKV()
	s.Execute(EncodePut("a", []byte("1")))
	d := fullCut(t, s, 1<<20)
	d.Full = false
	if err := NewKV().RestoreChunks([]snapshot.Gen{d}); err == nil {
		t.Fatal("chain without a full generation accepted")
	}
}
