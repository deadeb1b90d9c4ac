package core

import (
	"log"
	"sync"
	"time"

	"gosmr/internal/snapshot"
	"gosmr/internal/wire"
)

// Snapshot cut + drain machinery. A snapshot no longer stops execution for
// the whole serialization: the ServiceManager quiesces the workers just
// long enough to mark a consistent cut (plus marshal the reply cache), then
// hands the cut to a drainer goroutine that packs chunks, appends the new
// generation to the chain, publishes the snapshot, and persists it
// chunk-by-chunk — all while the workers are already executing again. The
// cut pause is O(state the service must mark), not O(state serialized): for
// the copy-on-write KV it is effectively constant.

// Snapshot is one cut as the replica holds it: the manifest that names it
// (embedded), the manifest's encoding — the bytes the disk commits and a
// joiner pulls — and the chunks it names, in manifest order. Immutable once
// built, so the store, the drainer, the Merger and the reader threads share
// it without copying.
type Snapshot struct {
	snapshot.Manifest
	enc    []byte
	chunks [][]byte
}

// newSnapshot assembles the snapshot of a cut at cut: the drained
// generation, appended to prev's chain unless it is full, then the reply
// cache's chunks. Only references are copied: the chunk slices are shared
// with prev.
func newSnapshot(prev *Snapshot, cut wire.InstanceID, groups int32, topo []byte, full bool, chunks, rc [][]byte) *Snapshot {
	s := &Snapshot{Manifest: snapshot.Manifest{Cut: cut, Groups: groups, Topo: topo}}
	if !full {
		s.Gens = append(s.Gens, prev.Gens...)
		s.chunks = append(s.chunks, prev.chunks[:len(prev.chunks)-len(prev.RC)]...)
	}
	s.Gens = append(s.Gens, snapshot.GenRef{Cut: cut, Full: full, Chunks: chunkRefs(chunks)})
	s.RC = chunkRefs(rc)
	s.chunks = append(append(s.chunks, chunks...), rc...)
	s.enc = s.Encode()
	return s
}

func chunkRefs(chunks [][]byte) []snapshot.ChunkRef {
	refs := make([]snapshot.ChunkRef, len(chunks))
	for i, c := range chunks {
		refs[i] = snapshot.RefOf(c)
	}
	return refs
}

// gens returns the service chain, each generation's chunks sliced from
// s.chunks — the shape Cutter.RestoreChunks takes.
func (s *Snapshot) gens() []snapshot.Gen {
	out := make([]snapshot.Gen, len(s.Gens))
	i := 0
	for g, gr := range s.Gens {
		n := len(gr.Chunks)
		out[g] = snapshot.Gen{Full: gr.Full, Chunks: s.chunks[i : i+n : i+n]}
		i += n
	}
	return out
}

// rc returns the reply cache's chunks.
func (s *Snapshot) rc() [][]byte { return s.chunks[len(s.chunks)-len(s.RC):] }

// piece returns what a SnapshotChunkReq names: chunk idx, or page idx of
// the manifest's encoding in pageBytes pages. ok is false for an index out
// of range — a peer's request is never trusted to be in it.
func (s *Snapshot) piece(manifest bool, idx int32, pageBytes int) ([]byte, bool) {
	if !manifest {
		if idx < 0 || int(idx) >= len(s.chunks) {
			return nil, false
		}
		return s.chunks[idx], true
	}
	off := int64(idx) * int64(pageBytes)
	if idx < 0 || off >= int64(len(s.enc)) {
		return nil, false
	}
	return s.enc[off:min(off+int64(pageBytes), int64(len(s.enc)))], true
}

// image returns the snapshot as one byte string — the manifest followed by
// its chunks in manifest order — for the SnapshotImage debug view. Built on
// demand; nothing caches it.
func (s *Snapshot) image() []byte {
	n := len(s.enc)
	for _, c := range s.chunks {
		n += len(c)
	}
	img := append(make([]byte, 0, n), s.enc...)
	for _, c := range s.chunks {
		img = append(img, c...)
	}
	return img
}

// snapshotStore holds the newest snapshot, written by the ServiceManager
// thread (or its drainer goroutine) and read by the Protocol thread when
// advertising state transfer and by reader threads when serving pulls. This
// is one of the paper's sanctioned shared-state exceptions: a single
// pointer behind a small mutex, never held across blocking operations. The
// snapshot it points to is immutable, so a pull is served from borrowed
// slices of it — a page of the manifest or one chunk per frame — and
// serving copies nothing.
type snapshotStore struct {
	mu   sync.Mutex
	snap *Snapshot
}

func (s *snapshotStore) put(snap *Snapshot) {
	s.mu.Lock()
	s.snap = snap
	s.mu.Unlock()
}

// get returns the newest snapshot, or nil before the first.
func (s *snapshotStore) get() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snap
}

// meta describes the current snapshot for catch-up advertisements (the
// paxos SnapshotProvider).
func (s *snapshotStore) meta() (wire.SnapshotMeta, bool) {
	snap := s.get()
	if snap == nil {
		return wire.SnapshotMeta{}, false
	}
	return wire.SnapshotMeta{LastIncluded: snap.Cut, Groups: snap.Groups}, true
}

// drainJob is the handle for one in-flight background drain. done closing
// transfers chain ownership back to the ServiceManager; failed (read only
// after done) reports that the cut produced no committed snapshot and the
// next cut must be full.
type drainJob struct {
	done   chan struct{}
	failed bool
}

// awaitDrain blocks until the in-flight drain (if any) finishes and folds
// its outcome into the ServiceManager's state. Called before anything that
// needs the chain or the disk layout: the next cut, a transferred-snapshot
// install, shutdown.
func (r *Replica) awaitDrain() {
	if r.drain == nil {
		return
	}
	<-r.drain.done
	if r.drain.failed {
		r.forceFull = true
	}
	r.drain = nil
}

// fullCutDue reports whether the snapshot at executedID is a full cut by
// the cluster-wide cadence: every SnapshotMaxChain-th snapshot, starting
// with the first. A pure function of the cut index and configuration, so
// every replica makes the same full/delta decision and chains stay
// byte-identical cluster-wide.
func (r *Replica) fullCutDue(executedID wire.InstanceID) bool {
	snapIdx := (int64(executedID) + 1) / int64(r.cfg.SnapshotEvery)
	return (snapIdx-1)%int64(r.cfg.SnapshotMaxChain) == 0
}

// runDrain is the drainer goroutine: everything a snapshot does after the
// cut, concurrent with execution. It owns the chain (the store's newest
// snapshot, which a delta cut extends) and r.snapDisk until it closes
// job.done. Log truncation is requested only after the manifest
// commit — persist-before-truncate, unchanged from the all-at-once design,
// just at manifest granularity now.
func (r *Replica) runDrain(job *drainJob, src snapshot.Source, cut wire.InstanceID, full bool, rc, topo []byte) {
	defer close(job.done)
	chunks, err := snapshot.Drain(src, r.cfg.SnapshotChunkBytes)
	if err != nil {
		r.snapshotFailure("draining snapshot chunks", cut, err)
		job.failed = true
		return
	}
	snap := newSnapshot(r.snapshots.get(), cut, int32(len(r.groups)), topo, full, chunks,
		snapshot.SplitBlob(rc, r.cfg.SnapshotChunkBytes))
	// Publish before persisting: catch-up state transfer serves from memory,
	// so a replica with a sick disk still helps lagging peers.
	r.snapshots.put(snap)
	if r.snapDisk != nil {
		if err := r.snapDisk.appendGen(snap); err != nil {
			// Keep the full WAL until a snapshot lands durably; the next cut
			// is forced full so the disk chain never references a missing
			// generation. Out-of-space additionally sheds WAL catch-up
			// retention so the retried cut has room to land.
			r.snapshotFailure("persisting snapshot", cut, err)
			r.maybeShrinkWAL(err)
			job.failed = true
			return
		}
	}
	for _, g := range r.groups {
		gcut := wire.GroupCut(cut, len(r.groups), g.idx)
		_, _ = g.dispatchQ.TryPut(event{kind: evTruncate, upTo: gcut})
	}
}

// snapshotFailure counts and (rate-limited to one line per ~5s) logs a
// failed snapshot stage. Failures used to be swallowed silently here;
// operators alert on the counter, the log line says which stage and why.
func (r *Replica) snapshotFailure(stage string, cut wire.InstanceID, err error) {
	r.snapshotFailures.Add(1)
	now := time.Now().UnixNano()
	last := r.lastSnapFailLog.Load()
	if now-last < int64(5*time.Second) || !r.lastSnapFailLog.CompareAndSwap(last, now) {
		return
	}
	log.Printf("gosmr: replica %d: %s (cut %d) failed: %v (failures so far: %d)",
		r.cfg.ID, stage, cut, err, r.snapshotFailures.Load())
}
