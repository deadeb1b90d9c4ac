package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"gosmr/internal/wire"
)

// open is a test helper wrapping Open.
func open(t *testing.T, dir string, policy SyncPolicy, segBytes int64) (*WAL, []Record) {
	t.Helper()
	w, recs, err := Open(Options{Dir: dir, Policy: policy, SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	return w, recs
}

// sample exercises every record type.
func sample() []Record {
	return []Record{
		{Type: RecView, View: 3},
		{Type: RecAccept, ID: 7, View: 3, Value: []byte("batch-7")},
		{Type: RecDecide, ID: 7},                                      // watermark decide: no value
		{Type: RecDecide, ID: 8, HasValue: true, Value: []byte("b8")}, // explicit value
		{Type: RecAccept, ID: 9, View: 4, Value: nil},                 // empty value
		{Type: RecCut, ID: 5},
		{Type: RecState, ID: 9, View: 4, Decided: true, Value: []byte("st")},
	}
}

// segFiles lists the wal-*.seg files in dir (pipeline spares excluded).
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		var seq int
		// Round-trip the name: Sscanf alone prefix-matches, which would
		// count quarantined wal-*.seg.corrupt files as live segments.
		if _, err := fmt.Sscanf(e.Name(), "wal-%08d.seg", &seq); err == nil && e.Name() == segName(seq) {
			segs = append(segs, e.Name())
		}
	}
	return segs
}

// normalize maps empty and nil Value to nil for comparison.
func normalize(rs []Record) []Record {
	out := make([]Record, len(rs))
	copy(out, rs)
	for i := range out {
		if len(out[i].Value) == 0 {
			out[i].Value = nil
		}
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncBatch, SyncNone} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			w, recs := open(t, dir, policy, 0)
			if len(recs) != 0 {
				t.Fatalf("fresh WAL replayed %d records", len(recs))
			}
			want := sample()
			for _, r := range want {
				w.Append(r)
			}
			w.Close()

			w2, got := open(t, dir, policy, 0)
			defer w2.Close()
			if !reflect.DeepEqual(normalize(got), normalize(want)) {
				t.Errorf("replay mismatch:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

func TestReplayAcrossReopens(t *testing.T) {
	dir := t.TempDir()
	var want []Record
	for round := range 3 {
		w, got := open(t, dir, SyncBatch, 0)
		if !reflect.DeepEqual(normalize(got), normalize(want)) {
			t.Fatalf("round %d: replay mismatch (%d vs %d records)", round, len(got), len(want))
		}
		rec := Record{Type: RecAccept, ID: wire.InstanceID(round), View: 1, Value: []byte{byte(round)}}
		w.Append(rec)
		want = append(want, rec)
		w.Close()
	}
}

func TestSegmentRollover(t *testing.T) {
	dir := t.TempDir()
	w, _ := open(t, dir, SyncBatch, 256) // tiny segments force rolls
	var want []Record
	val := make([]byte, 100)
	for i := range 20 {
		rec := Record{Type: RecAccept, ID: wire.InstanceID(i), View: 1, Value: val}
		w.Append(rec)
		want = append(want, rec)
		w.Sync() // drain each record so rolls happen between records
	}
	w.Close()

	if segs := segFiles(t, dir); len(segs) < 3 {
		t.Errorf("expected multiple segments, got %d", len(segs))
	}
	w2, got := open(t, dir, SyncBatch, 256)
	defer w2.Close()
	if !reflect.DeepEqual(normalize(got), normalize(want)) {
		t.Errorf("rollover replay mismatch: got %d records, want %d", len(got), len(want))
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w, _ := open(t, dir, SyncBatch, 0)
	want := sample()
	for _, r := range want {
		w.Append(r)
	}
	w.Close()

	// Tear the tail: append garbage, then half of a "record".
	path := filepath.Join(dir, segName(1))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var torn [12]byte
	binary.LittleEndian.PutUint32(torn[4:], 100) // claims 100-byte payload, absent
	if _, err := f.Write(torn[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, got := open(t, dir, SyncBatch, 0)
	if !reflect.DeepEqual(normalize(got), normalize(want)) {
		t.Fatalf("torn-tail replay lost records: got %d, want %d", len(got), len(want))
	}
	// The torn bytes are gone: appending and reopening stays consistent.
	extra := Record{Type: RecView, View: 9}
	w2.Append(extra)
	w2.Close()
	w3, got3 := open(t, dir, SyncBatch, 0)
	defer w3.Close()
	if !reflect.DeepEqual(normalize(got3), normalize(append(want, extra))) {
		t.Errorf("append after torn-tail repair diverged")
	}
}

func TestCorruptLengthPrefixRejected(t *testing.T) {
	// A record claiming a huge payload must be rejected by bounds checks
	// before any allocation (the untrusted-length guard).
	var b []byte
	b = append(b, 0, 0, 0, 0)
	b = binary.LittleEndian.AppendUint32(b, 0xFFFFFF00)
	b = append(b, byte(RecAccept))
	if _, _, ok := decodeRecord(b); ok {
		t.Error("decodeRecord accepted an absurd length prefix")
	}
	// Flipped bit fails the checksum.
	enc := encodeRecord(nil, Record{Type: RecAccept, ID: 1, View: 1, Value: []byte("v")})
	enc[len(enc)-1] ^= 0x01
	if _, _, ok := decodeRecord(enc); ok {
		t.Error("decodeRecord accepted a corrupt payload")
	}
}

// TestCheckpointCompactsSegments pins the retention policy: each checkpoint
// keeps one full previous checkpoint generation on disk (the cold range
// ReadDecidedRange serves to lagging peers) and deletes everything older, so
// disk usage stays bounded at roughly two generations.
func TestCheckpointCompactsSegments(t *testing.T) {
	dir := t.TempDir()
	w, _ := open(t, dir, SyncBatch, 0)
	for i := range 50 {
		w.Append(Record{Type: RecAccept, ID: wire.InstanceID(i), View: 1, Value: []byte("x")})
		w.Append(Record{Type: RecDecide, ID: wire.InstanceID(i)})
	}
	states := []Record{
		{Type: RecState, ID: 40, View: 1, Decided: true, Value: []byte("x")},
		{Type: RecState, ID: 41, View: 2, Value: []byte("y")},
	}
	w.Checkpoint(40, states)
	// The first checkpoint retains the pre-checkpoint segment: it is the
	// previous generation, and the disk must keep serving [0, 40) for
	// catch-up until the NEXT checkpoint supersedes it.
	if segs := segFiles(t, dir); len(segs) != 2 {
		t.Errorf("first checkpoint left %d segments, want 2 (previous generation retained): %v", len(segs), segs)
	}
	if vals, ok := w.ReadDecidedRange(0, 40, 1000); !ok || len(vals) != 40 {
		t.Errorf("previous generation not readable: ok=%v len=%d, want 40 decided values", ok, len(vals))
	}

	states2 := []Record{{Type: RecState, ID: 45, View: 2, Value: []byte("y")}}
	w.Checkpoint(45, states2)
	w.Append(Record{Type: RecAccept, ID: 46, View: 2, Value: []byte("z")})
	w.Close()

	// The second checkpoint drops everything below the first checkpoint's
	// segment: two generations remain (the first checkpoint's and the live
	// one).
	if segs := segFiles(t, dir); len(segs) != 2 {
		t.Errorf("second checkpoint left %d segments, want 2: %v", len(segs), segs)
	}
	w2, got := open(t, dir, SyncBatch, 0)
	defer w2.Close()
	want := append([]Record{{Type: RecCkpt, ID: 40}}, states...)
	want = append(want, Record{Type: RecCkpt, ID: 45})
	want = append(want, states2...)
	want = append(want, Record{Type: RecAccept, ID: 46, View: 2, Value: []byte("z")})
	if !reflect.DeepEqual(normalize(got), normalize(want)) {
		t.Errorf("post-checkpoint replay:\n got %+v\nwant %+v", got, want)
	}
}

// TestReadDecidedRange pins the disk-backed catch-up read path: decided
// values in sealed segments — explicit decides, watermark decides riding an
// earlier accept, and checkpoint RecState dumps — are served back as a
// contiguous prefix, capped at maxEntries, with ok=false exactly when the
// retention window cannot serve the start of the range.
func TestReadDecidedRange(t *testing.T) {
	dir := t.TempDir()
	w, _ := open(t, dir, SyncBatch, 0)
	defer w.Close()

	val := func(i int) []byte { return []byte(fmt.Sprintf("batch-%d", i)) }
	for i := range 10 {
		w.Append(Record{Type: RecAccept, ID: wire.InstanceID(i), View: 1, Value: val(i)})
		if i%2 == 0 {
			w.Append(Record{Type: RecDecide, ID: wire.InstanceID(i)}) // watermark decide
		} else {
			w.Append(Record{Type: RecDecide, ID: wire.InstanceID(i), HasValue: true, Value: val(i)})
		}
	}
	// Checkpoint at 8: slots 8..9 stay live and ride the RecState dump; the
	// pre-checkpoint segment is sealed and becomes the previous generation.
	states := []Record{
		{Type: RecState, ID: 8, View: 1, Decided: true, Value: val(8)},
		{Type: RecState, ID: 9, View: 1, Decided: true, Value: val(9)},
	}
	w.Checkpoint(8, states)

	vals, ok := w.ReadDecidedRange(2, 8, 100)
	if !ok || len(vals) != 6 {
		t.Fatalf("ReadDecidedRange(2,8) = %d values ok=%v, want 6 true", len(vals), ok)
	}
	for i, dv := range vals {
		want := wire.InstanceID(2 + i)
		if dv.ID != want || string(dv.Value) != string(val(int(want))) {
			t.Fatalf("value %d = (%d, %q), want (%d, %q)", i, dv.ID, dv.Value, want, val(int(want)))
		}
	}
	// The cap truncates to a shorter contiguous prefix, still ok.
	if vals, ok := w.ReadDecidedRange(0, 8, 3); !ok || len(vals) != 3 || vals[0].ID != 0 || vals[2].ID != 2 {
		t.Errorf("capped read = %+v ok=%v, want instances 0..2", vals, ok)
	}
	// After a second checkpoint the first generation is GC'd: instance 2 is
	// out of retention and the read reports it cannot serve the range.
	w.Checkpoint(10, nil)
	if _, ok := w.ReadDecidedRange(2, 8, 100); ok {
		t.Error("read below the retention window reported ok")
	}
	// But the previous (first-checkpoint) generation still serves its slots:
	// 8..9 were live in the RecState dump at cut 8.
	if vals, ok := w.ReadDecidedRange(8, 10, 100); !ok || len(vals) != 2 {
		t.Errorf("RecState-backed read = %+v ok=%v, want instances 8..9", vals, ok)
	}
	// An empty range is trivially served.
	if _, ok := w.ReadDecidedRange(5, 5, 100); !ok {
		t.Error("empty range not ok")
	}
}

// TestReadDecidedRangeSurvivesReopen pins that the cold-read path works on a
// reopened WAL (recovery replays the previous generation, and the ckptSeq
// retention boundary is rediscovered from the segment headers).
func TestReadDecidedRangeSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	w, _ := open(t, dir, SyncBatch, 0)
	for i := range 6 {
		w.Append(Record{Type: RecAccept, ID: wire.InstanceID(i), View: 1, Value: []byte{byte(i)}})
		w.Append(Record{Type: RecDecide, ID: wire.InstanceID(i)})
	}
	w.Checkpoint(6, nil)
	w.Close()

	w2, _ := open(t, dir, SyncBatch, 0)
	defer w2.Close()
	if vals, ok := w2.ReadDecidedRange(0, 6, 100); !ok || len(vals) != 6 {
		t.Fatalf("cold read after reopen = %d values ok=%v, want 6 true", len(vals), ok)
	}
	// The reopened WAL remembers the checkpoint boundary: its next
	// checkpoint must GC the pre-checkpoint generation, not retain it
	// forever.
	w2.Append(Record{Type: RecAccept, ID: 7, View: 1, Value: []byte("x")})
	w2.Checkpoint(7, nil)
	if _, ok := w2.ReadDecidedRange(0, 6, 100); ok {
		t.Error("generation below the reopened checkpoint boundary survived GC")
	}
}

func TestBatchDurableWatermarkAndCallback(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	var calls []int64
	w, _, err := Open(Options{Dir: dir, Policy: SyncBatch, OnDurable: func(lsn int64) {
		mu.Lock()
		calls = append(calls, lsn)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	w.Append(Record{Type: RecView, View: 1})
	lsn := w.AppendedLSN()
	if lsn <= 0 {
		t.Fatal("AppendedLSN did not advance")
	}
	deadline := time.Now().Add(2 * time.Second)
	for w.DurableLSN() < lsn && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := w.DurableLSN(); got < lsn {
		t.Fatalf("durable watermark %d never reached appended %d", got, lsn)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(calls) == 0 || calls[len(calls)-1] < lsn {
		t.Errorf("OnDurable calls %v never covered %d", calls, lsn)
	}
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"": SyncBatch, "batch": SyncBatch, "always": SyncAlways, "none": SyncNone, "NONE": SyncNone,
	} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("ParsePolicy accepted bogus policy")
	}
}

// TestCorruptNonFinalSegmentRefusesOpen asserts corruption below later
// segments — which cannot be a crash artifact, since a segment is fsynced
// before its successor exists — aborts recovery instead of silently
// rebooting the acceptor without fsynced promises peers already observed.
func TestCorruptNonFinalSegmentRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	w, _ := open(t, dir, SyncBatch, 256)
	val := make([]byte, 100)
	for i := range 10 {
		w.Append(Record{Type: RecAccept, ID: wire.InstanceID(i), View: 1, Value: val})
		w.Sync()
	}
	w.Close()
	seqs, err := w.segments()
	if err != nil || len(seqs) < 2 {
		t.Fatalf("need >= 2 segments, got %v (%v)", seqs, err)
	}
	// Flip a byte inside the FIRST segment's records.
	path := filepath.Join(dir, segName(seqs[0]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir, Policy: SyncBatch, SegmentBytes: 256}); err == nil {
		t.Fatal("Open succeeded on a WAL with a corrupt non-final segment")
	}
}

// crashCopy snapshots dir into a fresh directory, byte for byte — the disk
// image an abrupt kill would leave (modulo lost page-cache writes, which the
// recycling design keeps out of the correctness envelope via fsynced zero
// fill). The WAL stays open; nothing is gracefully flushed.
func crashCopy(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// waitForSpare blocks until the preallocation pipeline has a prepared spare
// on disk, so a subsequent roll deterministically consumes it.
func waitForSpare(t *testing.T, dir string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if isSpareName(e.Name()) {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("pipeline never prepared a spare file")
}

// TestSegmentRecyclingAcrossCrashReopen is the PR's recycling acceptance
// test: roll across >= 3 recycled segments (checkpoints free files, the
// pipeline zeroes and reuses them), then crash-reopen from a raw copy of the
// directory and verify replay returns exactly the surviving records — the
// recycled files' previous lives must not resurrect a single record, even
// though the active file physically contains preallocated space past its
// logical tail.
func TestSegmentRecyclingAcrossCrashReopen(t *testing.T) {
	dir := t.TempDir()
	const segBytes = 4 << 10
	w, _ := open(t, dir, SyncBatch, segBytes)
	defer w.Close()

	val := make([]byte, 512)
	for i := range val {
		val[i] = byte(i) // distinctive non-zero stale bytes for old lives
	}
	// everWritten records every record this WAL ever journaled (keyed by
	// encoding): anything replay returns beyond this set is a resurrected
	// ghost from a recycled file's previous life.
	everWritten := map[string]bool{}
	note := func(rec Record) { everWritten[string(encodeRecord(nil, rec))] = true }

	recycledRolls := 0
	var lastCut wire.InstanceID
	id := wire.InstanceID(0)
	for round := 0; recycledRolls < 3 && round < 40; round++ {
		waitForSpare(t, dir)
		// Fill past the segment size to force at least one roll, which
		// consumes the prepared (possibly recycled) spare.
		for range (segBytes / len(val)) + 2 {
			rec := Record{Type: RecAccept, ID: id, View: 1, Value: val}
			w.Append(rec)
			note(rec)
			id++
		}
		w.Sync()
		w.fileMu.Lock()
		active := w.prealloc
		w.fileMu.Unlock()
		if active {
			recycledRolls++
		}
		// Checkpoint everything so far: frees segments below the previous
		// checkpoint into the recycle queue and starts a fresh
		// (pipeline-fed) segment.
		lastCut = id
		w.Checkpoint(lastCut, nil)
		note(Record{Type: RecCkpt, ID: lastCut})
	}
	if recycledRolls < 3 {
		t.Fatalf("only %d rolls landed in preallocated files", recycledRolls)
	}
	// A few more durable records on the (preallocated) active segment: the
	// exact tail a crash replay must reproduce.
	var tail []Record
	for range 3 {
		rec := Record{Type: RecAccept, ID: id, View: 2, Value: val}
		w.Append(rec)
		note(rec)
		tail = append(tail, rec)
		id++
	}
	w.Sync()

	// The active segment is preallocated: physically larger than its
	// logical content, with a guaranteed-zero tail.
	w.fileMu.Lock()
	path := filepath.Join(w.dir, segName(w.seq))
	logical := w.fileSize
	active := w.prealloc
	w.fileMu.Unlock()
	if !active {
		t.Fatal("active segment is not preallocated")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) <= logical {
		t.Fatalf("active segment %d bytes, want > logical %d (preallocated tail)", len(data), logical)
	}
	for i := logical; i < int64(len(data)); i++ {
		if data[i] != 0 {
			t.Fatalf("recycled segment has non-zero stale byte at %d: stale tails must be zeroed", i)
		}
	}

	// Crash: reopen from a raw copy of the directory (no graceful close).
	// Replay may legitimately include records from GC'd segments the
	// pipeline had not recycled yet (core recovery covers those through the
	// checkpoint's RecCut), but it must (a) never return a record this WAL
	// did not write — no resurrection from recycled files' previous lives —
	// and (b) reproduce the post-checkpoint tail exactly.
	crashDir := crashCopy(t, dir)
	w2, got, err := Open(Options{Dir: crashDir, Policy: SyncBatch, SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range got {
		if !everWritten[string(encodeRecord(nil, rec))] {
			t.Fatalf("replay record %d was never written (ghost from a recycled file): %+v", i, rec)
		}
	}
	lastCutIdx := -1
	for i, rec := range got {
		if rec.Type == RecCkpt && rec.ID == lastCut {
			lastCutIdx = i
		}
	}
	if lastCutIdx < 0 {
		t.Fatalf("replay lost the last checkpoint cut %d", lastCut)
	}
	if !reflect.DeepEqual(normalize(got[lastCutIdx+1:]), normalize(tail)) {
		t.Fatalf("post-checkpoint tail mismatch:\n got %d records\nwant %d records",
			len(got)-lastCutIdx-1, len(tail))
	}
	// The repaired WAL keeps working: append, close, reopen.
	extra := Record{Type: RecView, View: 9}
	w2.Append(extra)
	w2.Close()
	w3, got3, err := Open(Options{Dir: crashDir, Policy: SyncBatch, SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if len(got3) != len(got)+1 || !reflect.DeepEqual(normalize(got3[:len(got)]), normalize(got)) ||
		!reflect.DeepEqual(normalize(got3[len(got):]), normalize([]Record{extra})) {
		t.Errorf("append after crash-reopen diverged (%d vs %d records)", len(got3), len(got)+1)
	}
}

// TestSealedRecycledSegmentsScanIntact asserts rolls trim the preallocated
// padding when sealing, so non-final segments keep the strict
// intact-or-refuse corruption check.
func TestSealedRecycledSegmentsScanIntact(t *testing.T) {
	dir := t.TempDir()
	const segBytes = 2 << 10
	w, _ := open(t, dir, SyncBatch, segBytes)
	val := make([]byte, 256)
	waitForSpare(t, dir)
	var want []Record
	for i := range 30 { // enough to roll several times
		rec := Record{Type: RecAccept, ID: wire.InstanceID(i), View: 1, Value: val}
		w.Append(rec)
		want = append(want, rec)
		w.Sync()
	}
	w.fileMu.Lock()
	cur := w.seq
	w.fileMu.Unlock()
	if cur < 3 {
		t.Fatalf("expected >= 3 segments, at %d", cur)
	}
	// Every sealed segment must be exactly its records: intact scan, no
	// zero padding left behind.
	for _, name := range segFiles(t, dir) {
		var seq int
		fmt.Sscanf(name, "wal-%08d.seg", &seq)
		if seq == cur {
			continue // active segment may carry preallocated padding
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if _, valid, intact := scanSegment(data); !intact {
			t.Errorf("sealed segment %s not intact (valid prefix %d of %d)", name, valid, len(data))
		}
	}
	w.Close()
	w2, got := open(t, dir, SyncBatch, segBytes)
	defer w2.Close()
	if !reflect.DeepEqual(normalize(got), normalize(want)) {
		t.Errorf("replay across recycled rolls mismatch: got %d records, want %d", len(got), len(want))
	}
}

// TestPreallocDisabled pins the opt-out: negative PreallocSpares keeps the
// plain growing-file behavior with no pipeline and no spare files.
func TestPreallocDisabled(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir, Policy: SyncBatch, SegmentBytes: 256, PreallocSpares: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 10 {
		w.Append(Record{Type: RecAccept, ID: wire.InstanceID(i), View: 1, Value: make([]byte, 100)})
		w.Sync()
	}
	w.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if isSpareName(e.Name()) {
			t.Errorf("preallocation disabled but spare %s exists", e.Name())
		}
	}
	w2, got := open(t, dir, SyncBatch, 256)
	defer w2.Close()
	if len(got) != 10 {
		t.Errorf("replay returned %d records, want 10", len(got))
	}
}

// TestStaleSparesRemovedAtOpen asserts leftover spare files — whose zero
// fill may not have survived a crash — are discarded at Open rather than
// ever renamed into segments.
func TestStaleSparesRemovedAtOpen(t *testing.T) {
	dir := t.TempDir()
	// A "spare" full of stale, CRC-valid-looking bytes from a previous life.
	stale := encodeRecord(nil, Record{Type: RecAccept, ID: 999, View: 9, Value: []byte("ghost")})
	if err := os.WriteFile(filepath.Join(dir, spareName(0)), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	w, recs := open(t, dir, SyncBatch, 0)
	defer w.Close()
	if len(recs) != 0 {
		t.Fatalf("stale spare leaked %d records into replay", len(recs))
	}
	// The preallocation pipeline may already have made a fresh spare under
	// the same name, so what must be gone is the stale record, not the file.
	b, err := os.ReadFile(filepath.Join(dir, spareName(0)))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if bytes.HasPrefix(b, stale) {
		t.Error("stale spare file survived Open")
	}
}

// TestAdaptiveSyncInterval pins the adaptive group-commit floor mapping:
// spacing = ewma/share clamped to [DefaultMinSyncInterval,
// MaxAdaptiveSyncInterval], with the floor as the no-observation default.
func TestAdaptiveSyncInterval(t *testing.T) {
	cases := []struct {
		ewma  time.Duration
		share float64
		want  time.Duration
	}{
		{0, 0.5, DefaultMinSyncInterval},                       // nothing observed yet
		{100 * time.Microsecond, 0.5, DefaultMinSyncInterval},  // NVMe: clamped to floor
		{250 * time.Microsecond, 0.5, DefaultMinSyncInterval},  // exactly the floor
		{2 * time.Millisecond, 0.5, 4 * time.Millisecond},      // EBS-ish: backs off
		{5 * time.Millisecond, 0.25, MaxAdaptiveSyncInterval},  // slow disk, small share: capped
		{100 * time.Millisecond, 0.5, MaxAdaptiveSyncInterval}, // pathological: capped
		{1 * time.Millisecond, 1.0, 1 * time.Millisecond},      // full-core budget
	}
	for _, c := range cases {
		if got := adaptiveSyncInterval(c.ewma, c.share); got != c.want {
			t.Errorf("adaptiveSyncInterval(%v, %v) = %v, want %v", c.ewma, c.share, got, c.want)
		}
	}
}

// TestSyncIntervalModes asserts the three MinSyncInterval modes: unset
// adapts from measured fsync latency, positive is a fixed override,
// negative disables the floor.
func TestSyncIntervalModes(t *testing.T) {
	w, _, err := Open(Options{Dir: t.TempDir(), Policy: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.SyncInterval(); got != DefaultMinSyncInterval {
		t.Errorf("adaptive interval before any fsync = %v, want floor %v", got, DefaultMinSyncInterval)
	}
	if got := w.FsyncEWMA(); got != 0 {
		t.Errorf("FsyncEWMA before any fsync = %v, want 0", got)
	}
	w.Append(Record{Type: RecAccept, ID: 1, View: 1, Value: []byte("x")})
	w.Sync()
	if got := w.FsyncEWMA(); got <= 0 {
		t.Errorf("FsyncEWMA after a sync = %v, want > 0", got)
	}
	iv := w.SyncInterval()
	if iv < DefaultMinSyncInterval || iv > MaxAdaptiveSyncInterval {
		t.Errorf("adaptive interval %v outside [%v, %v]", iv, DefaultMinSyncInterval, MaxAdaptiveSyncInterval)
	}
	w.Close()

	fixed, _, err := Open(Options{Dir: t.TempDir(), Policy: SyncBatch, MinSyncInterval: 3 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fixed.Append(Record{Type: RecAccept, ID: 1, View: 1, Value: []byte("x")})
	fixed.Sync()
	if got := fixed.SyncInterval(); got != 3*time.Millisecond {
		t.Errorf("fixed override interval = %v, want 3ms regardless of fsync latency", got)
	}
	fixed.Close()

	off, _, err := Open(Options{Dir: t.TempDir(), Policy: SyncBatch, MinSyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := off.SyncInterval(); got > 0 {
		t.Errorf("disabled floor interval = %v, want <= 0", got)
	}
	off.Close()
}

// fillGeneration appends accept+decide pairs for ids [from, to).
func fillGeneration(w *WAL, from, to int) {
	for i := from; i < to; i++ {
		w.Append(Record{Type: RecAccept, ID: wire.InstanceID(i), View: 1, Value: []byte("v")})
		w.Append(Record{Type: RecDecide, ID: wire.InstanceID(i)})
	}
	w.Sync()
}

// TestRetainCheckpointsKeepsGenerations pins the generations knob: with
// RetainCheckpoints=2 the catch-up window reaches two checkpoint
// generations below the newest cut, where the default (1) serves only one.
func TestRetainCheckpointsKeepsGenerations(t *testing.T) {
	for _, c := range []struct {
		retain   int
		wantSegs int
		deepOK   bool // can [10, 20) still be served after 3 checkpoints?
	}{
		{0, 2, false}, // 0 takes the default of 1
		{1, 2, false},
		{2, 3, true},
	} {
		dir := t.TempDir()
		w, _, err := Open(Options{Dir: dir, Policy: SyncBatch, RetainCheckpoints: c.retain})
		if err != nil {
			t.Fatal(err)
		}
		fillGeneration(w, 0, 10)
		w.Checkpoint(10, nil)
		fillGeneration(w, 10, 20)
		w.Checkpoint(20, nil)
		fillGeneration(w, 20, 30)
		w.Checkpoint(30, nil)
		vals, ok := w.ReadDecidedRange(10, 20, 1000)
		if gotOK := ok && len(vals) == 10; gotOK != c.deepOK {
			t.Errorf("retain=%d: read of generation-2 range ok=%v len=%d, want served=%v", c.retain, ok, len(vals), c.deepOK)
		}
		// The newest previous generation is always served.
		if vals, ok := w.ReadDecidedRange(20, 30, 1000); !ok || len(vals) != 10 {
			t.Errorf("retain=%d: newest previous generation unreadable: ok=%v len=%d", c.retain, ok, len(vals))
		}
		// Close first: a GC'd segment may linger under its name until the
		// recycle pipeline (stopped by Close) processes it.
		w.Close()
		if segs := segFiles(t, dir); len(segs) != c.wantSegs {
			t.Errorf("retain=%d: %d segments on disk, want %d: %v", c.retain, len(segs), c.wantSegs, segs)
		}
	}
}

// TestRetainBytesExtendsRetention pins the byte-budget knob: a large
// RetainBytes keeps segments below the generation floor alive — deep
// catch-up served from disk — while a tiny budget degrades to
// generations-only retention, never below the generation guarantee.
func TestRetainBytesExtendsRetention(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir, Policy: SyncBatch, RetainBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	fillGeneration(w, 0, 10)
	w.Checkpoint(10, nil)
	fillGeneration(w, 10, 20)
	w.Checkpoint(20, nil)
	fillGeneration(w, 20, 30)
	w.Checkpoint(30, nil)
	// Budget is effectively unbounded: every generation survives.
	if vals, ok := w.ReadDecidedRange(0, 30, 1000); !ok || len(vals) != 30 {
		t.Errorf("deep catch-up read ok=%v len=%d, want 30 values from slot 0", ok, len(vals))
	}
	w.Close()

	// Replay rebuilds the generation ladder: another checkpoint after
	// reopen must still honor the byte budget.
	w2, _, err := Open(Options{Dir: dir, Policy: SyncBatch, RetainBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	fillGeneration(w2, 30, 40)
	w2.Checkpoint(40, nil)
	if vals, ok := w2.ReadDecidedRange(0, 40, 1000); !ok || len(vals) != 40 {
		t.Errorf("post-reopen deep read ok=%v len=%d, want 40", ok, len(vals))
	}
	w2.Close()

	// A budget too small to cover anything extra degrades to the
	// generation guarantee (identical to RetainBytes=0).
	dir2 := t.TempDir()
	w3, _, err := Open(Options{Dir: dir2, Policy: SyncBatch, RetainBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	fillGeneration(w3, 0, 10)
	w3.Checkpoint(10, nil)
	fillGeneration(w3, 10, 20)
	w3.Checkpoint(20, nil)
	fillGeneration(w3, 20, 30)
	w3.Checkpoint(30, nil)
	if vals, ok := w3.ReadDecidedRange(20, 30, 1000); !ok || len(vals) != 10 {
		t.Errorf("generation guarantee broken under tiny budget: ok=%v len=%d", ok, len(vals))
	}
	w3.Close() // flush the recycle pipeline before counting segments
	if segs := segFiles(t, dir2); len(segs) != 2 {
		t.Errorf("tiny budget left %d segments, want 2 (generation guarantee only): %v", len(segs), segs)
	}
}
