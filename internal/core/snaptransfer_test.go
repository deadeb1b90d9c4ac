package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"gosmr/internal/snapshot"
	"gosmr/internal/transport"
	"gosmr/internal/wire"
)

// restoreRecorder is a chunk-contract service that only records what it is
// restored from, and the process's TotalAlloc at the moment it is called.
type restoreRecorder struct {
	gens       []snapshot.Gen
	allocsAtIn uint64
}

func (s *restoreRecorder) Execute([]byte) []byte     { return nil }
func (s *restoreRecorder) Snapshot() ([]byte, error) { return nil, nil }
func (s *restoreRecorder) Restore([]byte) error      { return nil }
func (s *restoreRecorder) CutSnapshot(bool) (snapshot.Source, bool, error) {
	return nil, false, snapshot.ErrCutActive
}
func (s *restoreRecorder) RestoreChunks(gens []snapshot.Gen) error {
	s.allocsAtIn = totalAlloc()
	s.gens = gens
	return nil
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// transferCluster builds the unstarted replicas of one cluster of
// len(seeds)+1: a joiner (ID 0) with a DataDir, and a donor per seed (IDs
// 1...) holding a full snapshot at cut 99 of n chunks of chunkBytes bytes
// drawn from its seed — equal seeds, equal chains. Their SendQueues are the
// wire: the test moves frames between them by hand.
func transferCluster(t *testing.T, n, chunkBytes int, seeds ...int64) (joiner *Replica, donors []*Replica, svc *restoreRecorder) {
	t.Helper()
	peers := []string{"tp-0"}
	for i := range seeds {
		peers = append(peers, fmt.Sprintf("tp-%d", i+1))
	}
	svc = &restoreRecorder{}
	mk := func(id int, dataDir string) *Replica {
		r, err := NewReplica(Config{ID: id, PeerAddrs: peers, ClientAddr: peers[id] + "-c",
			Network: transport.NewInproc(0), SnapshotChunkBytes: chunkBytes, DataDir: dataDir}, svc)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	joiner = mk(0, t.TempDir())
	for i, seed := range seeds {
		donor := mk(i+1, "")
		rng := rand.New(rand.NewSource(seed))
		chunks := make([][]byte, n)
		for i := range chunks {
			chunks[i] = make([]byte, chunkBytes)
			rng.Read(chunks[i])
		}
		donor.snapshots.put(newSnapshot(nil, 99, 1, wire.EncodeTopology(donor.topo.Load()), true, chunks,
			snapshot.SplitBlob(donor.replyCache.Marshal(), chunkBytes)))
		donors = append(donors, donor)
	}
	return joiner, donors, svc
}

// transferPair is a transferCluster with one donor.
func transferPair(t *testing.T, n, chunkBytes int) (donor, joiner *Replica, svc *restoreRecorder, snap *Snapshot) {
	joiner, donors, svc := transferCluster(t, n, chunkBytes, 1)
	return donors[0], joiner, svc, donors[0].snapshots.get()
}

// serve asks the donor for one piece and returns its answer.
func serve(t *testing.T, donor *Replica, req *wire.SnapshotChunkReq) *wire.SnapshotChunk {
	t.Helper()
	donor.serveSnapshotChunk(0, req)
	it, ok := donor.sendQueue(0).TryTake()
	if !ok {
		t.Fatal("request went unanswered")
	}
	return it.msg.(*wire.SnapshotChunk)
}

// TestServeSnapshotChunkRefusesBadRequests: a request is peer input. One
// for a cut the store does not hold, or for an index out of range —
// negative, past the last chunk or manifest page, or large enough to
// overflow an offset — is answered OK=false, and nothing panics.
func TestServeSnapshotChunkRefusesBadRequests(t *testing.T) {
	donor, _, _, snap := transferPair(t, 3, 256)
	empty, _, _, _ := transferPair(t, 1, 256)
	empty.snapshots.put(nil)
	if c := serve(t, empty, &wire.SnapshotChunkReq{Cut: 99}); c.OK {
		t.Error("a replica without a snapshot served one")
	}
	for _, req := range []wire.SnapshotChunkReq{
		{Cut: 98, Index: 0},
		{Cut: 99, Index: -1},
		{Cut: 99, Index: int32(snap.NumChunks())},
		{Cut: 99, Index: math.MaxInt32},
		{Cut: 99, Manifest: true, Index: -1},
		{Cut: 99, Manifest: true, Index: int32(len(snap.enc)/256 + 1)},
		{Cut: 99, Manifest: true, Index: math.MaxInt32},
	} {
		if c := serve(t, donor, &req); c.OK || len(c.Data) != 0 || c.Index != req.Index || c.Manifest != req.Manifest {
			t.Errorf("request %+v answered %+v, want a refusal echoing it", req, c)
		}
	}
	for i := range snap.NumChunks() {
		if c := serve(t, donor, &wire.SnapshotChunkReq{Cut: 99, Index: int32(i)}); !c.OK || !snap.Ref(i).Matches(c.Data) {
			t.Errorf("chunk %d: OK=%v, data does not match the manifest", i, c.OK)
		}
	}
	var enc []byte
	for page := int32(0); ; page++ {
		c := serve(t, donor, &wire.SnapshotChunkReq{Cut: 99, Manifest: true, Index: page})
		if !c.OK {
			break
		}
		if len(c.Data) > 256 {
			t.Fatalf("manifest page %d is %d bytes, over the 256-byte cap", page, len(c.Data))
		}
		enc = append(enc, c.Data...)
	}
	if !bytes.Equal(enc, snap.enc) {
		t.Error("the manifest pages do not reassemble the manifest")
	}
}

// TestSnapshotTransferMemoryBounded transfers a state of 64 chunks and
// measures each side alone: the donor serves the whole pull from the
// snapshot it holds, and the joiner keeps one copy of each chunk — the
// state itself — on its way to RestoreChunks.
func TestSnapshotTransferMemoryBounded(t *testing.T) {
	const (
		chunkBytes = 64 << 10
		n          = 64
		state      = n * chunkBytes
	)
	donor, joiner, svc, snap := transferPair(t, n, chunkBytes)

	// The donor, alone: every piece a pull asks for, answered in turn.
	type key struct {
		manifest bool
		index    int32
	}
	resps := make(map[key]*wire.SnapshotChunk, n+2)
	reqs := make([]wire.SnapshotChunkReq, 0, n+2)
	reqs = append(reqs, wire.SnapshotChunkReq{Cut: 99, Manifest: true})
	for i := range snap.NumChunks() {
		reqs = append(reqs, wire.SnapshotChunkReq{Cut: 99, Index: int32(i)})
	}
	runtime.GC()
	before := totalAlloc()
	for i := range reqs {
		c := serve(t, donor, &reqs[i])
		resps[key{c.Manifest, c.Index}] = c
	}
	donorAlloc := totalAlloc() - before
	t.Logf("donor: %d bytes allocated serving a %d-byte state in %d-byte chunks", donorAlloc, state, chunkBytes)
	if donorAlloc > 4*chunkBytes {
		t.Errorf("donor allocated %d bytes serving the pull, want <= %d (4 chunks)", donorAlloc, 4*chunkBytes)
	}

	// The joiner, alone: the pull loop runs here, and a feeder answers its
	// requests with the donor's recorded responses.
	out := joiner.sendQueue(1)
	go func() {
		for {
			it, err := out.Take(nil)
			if err != nil {
				return
			}
			req := it.msg.(*wire.SnapshotChunkReq)
			joiner.puller.deliver(resps[key{req.Manifest, req.Index}])
		}
	}()
	defer out.Close()
	runtime.GC()
	before = totalAlloc()
	got, err := joiner.pullSnapshot(wire.SnapshotMeta{LastIncluded: 99, Groups: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := joiner.snapDisk.commit(got); err != nil {
		t.Fatal(err)
	}
	if err := joiner.restoreFromSnapshot(got); err != nil {
		t.Fatal(err)
	}
	joinerAlloc := svc.allocsAtIn - before
	t.Logf("joiner: %d bytes allocated from the pull to RestoreChunks (state %d bytes)", joinerAlloc, state)
	if joinerAlloc > state+4*chunkBytes {
		t.Errorf("joiner allocated %d bytes, want <= %d (the state + 4 chunks)", joinerAlloc, state+4*chunkBytes)
	}
	if len(svc.gens) != 1 || len(svc.gens[0].Chunks) != n {
		t.Fatalf("restored %d generations", len(svc.gens))
	}
	for i, c := range svc.gens[0].Chunks {
		if !bytes.Equal(c, snap.chunks[i]) {
			t.Fatalf("restored chunk %d differs from the donor's", i)
		}
	}
	// Committed as pulled: a reboot loads the same manifest and chunks.
	loaded, _, err := joiner.snapDisk.loadNewest()
	if err != nil || loaded == nil || !bytes.Equal(loaded.image(), snap.image()) {
		t.Fatalf("reloaded snapshot differs from the donor's (err %v)", err)
	}
}

// TestSnapshotPullChecksEveryChunk: the joiner assembles a manifest served
// in several pages, then checks every chunk against it. A chunk from a
// donor whose chain differs at the same cut (forceFull can make two
// donors' chains differ) fails the check and is asked of another peer.
func TestSnapshotPullChecksEveryChunk(t *testing.T) {
	const chunkBytes, n, refused = 64, 40, 5
	joiner, donors, svc := transferCluster(t, n, chunkBytes, 1, 2)
	want := donors[0].snapshots.get()
	if len(want.enc) <= 2*chunkBytes {
		t.Fatalf("manifest is %d bytes: the test needs one of several %d-byte pages", len(want.enc), chunkBytes)
	}
	var askedOther atomic.Int32 // requests for the refused chunk that reached the second donor
	refusedOnce := false
	for i, donor := range donors {
		id := i + 1
		out := joiner.sendQueue(id)
		defer out.Close()
		go func() {
			for {
				it, err := out.Take(nil)
				if err != nil {
					return
				}
				req := it.msg.(*wire.SnapshotChunkReq)
				donor.serveSnapshotChunk(0, req)
				answer, ok := donor.sendQueue(0).TryTake()
				if !ok {
					t.Error("request went unanswered")
					return
				}
				resp := answer.msg.(*wire.SnapshotChunk)
				if !req.Manifest && req.Index == refused {
					if id == 1 && !refusedOnce {
						refusedOnce = true
						resp.OK, resp.Data = false, nil
					}
					if id == 2 {
						askedOther.Add(1)
					}
				}
				joiner.puller.deliver(resp)
			}
		}()
	}
	got, err := joiner.pullSnapshot(wire.SnapshotMeta{LastIncluded: 99, Groups: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.image(), want.image()) {
		t.Fatal("pulled snapshot differs from the manifest's donor")
	}
	if askedOther.Load() == 0 {
		t.Fatal("the refused chunk was never asked of the donor with the other chain")
	}
	if err := joiner.restoreFromSnapshot(got); err != nil || len(svc.gens[0].Chunks) != n {
		t.Fatalf("restore: %v", err)
	}
}

// TestSnapshotPullEmptyGeneration: a chain may hold a generation with no
// chunks — a delta cut of a clean store. A joiner with a DataDir pulls and
// commits such a chain, and a damaged manifest of its own does not block
// the pull: the transfer routes around it, and boot quarantines it.
func TestSnapshotPullEmptyGeneration(t *testing.T) {
	const chunkBytes = 64
	joiner, donors, svc := transferCluster(t, 3, chunkBytes, 1)
	donor := donors[0]
	topo := wire.EncodeTopology(donor.topo.Load())
	rc := snapshot.SplitBlob(donor.replyCache.Marshal(), chunkBytes)
	base := donor.snapshots.get()
	base = newSnapshot(nil, 50, 1, topo, true, base.chunks[:3], nil)
	clean := newSnapshot(base, 70, 1, topo, false, nil, nil)
	want := newSnapshot(clean, 99, 1, topo, false, [][]byte{bytes.Repeat([]byte{7}, chunkBytes)}, rc)
	donor.snapshots.put(want)

	if err := os.MkdirAll(joiner.snapDisk.dir, 0o755); err != nil {
		t.Fatal(err)
	}
	rotten := filepath.Join(joiner.snapDisk.dir, manifestName(40))
	if err := os.WriteFile(rotten, []byte("not a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}

	out := joiner.sendQueue(1)
	defer out.Close()
	go func() {
		for {
			it, err := out.Take(nil)
			if err != nil {
				return
			}
			donor.serveSnapshotChunk(0, it.msg.(*wire.SnapshotChunkReq))
			answer, ok := donor.sendQueue(0).TryTake()
			if !ok {
				t.Error("request went unanswered")
				return
			}
			joiner.puller.deliver(answer.msg.(*wire.SnapshotChunk))
		}
	}()
	got, err := joiner.pullSnapshot(wire.SnapshotMeta{LastIncluded: 99, Groups: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := joiner.snapDisk.commit(got); err != nil {
		t.Fatal(err)
	}
	loaded, skipped, err := joiner.snapDisk.loadNewest()
	if err != nil || loaded == nil || !bytes.Equal(loaded.image(), want.image()) {
		t.Fatalf("reloaded snapshot differs from the donor's (err %v)", err)
	}
	if len(skipped) != 0 {
		t.Errorf("boot skipped %v, want the pulled manifest first", skipped)
	}
	if err := joiner.restoreFromSnapshot(loaded); err != nil {
		t.Fatal(err)
	}
	if len(svc.gens) != 3 || len(svc.gens[1].Chunks) != 0 {
		t.Fatalf("restored %d generations, want 3 with an empty middle one", len(svc.gens))
	}
}
