package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gosmr/internal/vfs"
	"gosmr/internal/wire"
)

// Chunked, resumable snapshot transfer. Catch-up no longer ships a snapshot
// inline: the responder advertises SnapshotMeta, and the lagging replica
// pulls the snapshot's serialized image with SnapshotChunkReq/SnapshotChunk
// rounds — one outstanding request, each frame capped at
// SnapshotChunkBytes, so the pull is self-clocked (its rate is bounded by
// one frame per round trip) and a snapshot never crosses the wire as a
// single unbounded unit. Received bytes are staged in
// DataDir/snapshots/pull-<cut>.part, fsynced per chunk; after a restart or
// reconnect the pull resumes from the staged size instead of byte 0.

// snapPuller routes SnapshotChunk responses from the reader threads to the
// ServiceManager's synchronous pull loop. Only one pull is ever active.
type snapPuller struct {
	mu     sync.Mutex
	cut    wire.InstanceID
	active bool
	resp   chan pulledChunk
}

// pulledChunk is one delivered response; data is an owned copy (the wire
// frame recycles when the reader moves on).
type pulledChunk struct {
	offset, total uint64
	ok            bool
	data          []byte
}

func (p *snapPuller) begin(cut wire.InstanceID) {
	p.mu.Lock()
	p.cut, p.active = cut, true
	p.mu.Unlock()
	// Drop responses left over from an abandoned pull.
	for {
		select {
		case <-p.resp:
		default:
			return
		}
	}
}

func (p *snapPuller) end() {
	p.mu.Lock()
	p.active = false
	p.mu.Unlock()
}

// deliver hands a chunk response to the pull loop. Runs on reader threads;
// drops anything unexpected (no pull active, wrong cut, loop busy) — the
// pull loop re-requests on timeout, so dropping is always safe.
func (p *snapPuller) deliver(m *wire.SnapshotChunk) {
	p.mu.Lock()
	match := p.active && m.Cut == p.cut
	p.mu.Unlock()
	if !match {
		return
	}
	data := make([]byte, len(m.Data))
	copy(data, m.Data)
	select {
	case p.resp <- pulledChunk{offset: m.Offset, total: m.Total, ok: m.OK, data: data}:
	default:
	}
}

// serveSnapshotChunk answers a peer's chunk request from the image store.
// Runs on the reader thread that decoded the request — the store lookup is
// a mutex-guarded slice, never blocking on I/O — and respects the smaller
// of the requester's and this replica's frame caps. Data borrows the
// store's immutable image; the send path encodes it before the store can
// swap generations... and even a swap only drops the old image's last
// reference, it never rewrites the bytes.
func (r *Replica) serveSnapshotChunk(peer int, m *wire.SnapshotChunkReq) {
	maxBytes := int(m.MaxBytes)
	if maxBytes <= 0 || maxBytes > r.cfg.SnapshotChunkBytes {
		maxBytes = r.cfg.SnapshotChunkBytes
	}
	resp := wire.NewSnapshotChunk()
	resp.Cut, resp.Offset = m.Cut, m.Offset
	resp.Data, resp.Total, resp.OK = r.snapshots.readAt(m.Cut, m.Offset, maxBytes)
	r.enqueueSend(peer, 0, resp)
}

// pullSnapshot fetches the advertised snapshot image chunk by chunk and
// decodes it. Requests go to group 0's leader hint first and rotate through
// the peers on timeout or refusal. Synchronous on the ServiceManager
// thread; aborts on shutdown. The staging file survives an error return —
// that is the resume state — but a staged image that fails verification is
// discarded so the next attempt starts clean.
func (r *Replica) pullSnapshot(meta wire.SnapshotMeta) (*wire.Snapshot, error) {
	stage, err := r.openPullStage(meta)
	if err != nil {
		return nil, err
	}
	defer stage.close()
	r.puller.begin(meta.LastIncluded)
	defer r.puller.end()

	topo := r.topo.Load()
	target := int(r.groups[0].leaderHint.Load())
	rotate := func() {
		// Next active peer in ID order, wrapping; skips self and removed IDs.
		for range len(topo.Peers) {
			target = (target + 1) % len(topo.Peers)
			if target != r.cfg.ID && topo.Active(target) {
				return
			}
		}
	}
	if target == r.cfg.ID || !topo.Active(target) {
		target = r.cfg.ID
		rotate()
	}
	misses := 0
	for stage.size < meta.TotalBytes {
		if misses > 4*topo.N() {
			return nil, fmt.Errorf("pull stalled at %d/%d bytes", stage.size, meta.TotalBytes)
		}
		req := wire.NewSnapshotChunkReq()
		req.Cut, req.Offset, req.MaxBytes = meta.LastIncluded, stage.size, uint32(r.cfg.SnapshotChunkBytes)
		r.enqueueSend(target, 0, req)
	wait:
		select {
		case <-r.stop:
			return nil, fmt.Errorf("replica stopping")
		case c := <-r.puller.resp:
			if !c.ok || c.total != meta.TotalBytes {
				// Responder moved past this cut (or serves a different
				// image); try the next peer, and let catch-up re-advertise
				// if everyone has.
				misses++
				rotate()
				continue
			}
			if c.offset != stage.size || len(c.data) == 0 ||
				len(c.data) > r.cfg.SnapshotChunkBytes {
				goto wait // stale duplicate from an earlier round: ignore it
			}
			if err := stage.append(c.data); err != nil {
				return nil, err
			}
			crashPoint("transfer-chunk")
			misses = 0
		case <-time.After(catchUpTimeout):
			misses++
			rotate()
		}
	}
	img, err := stage.bytes()
	if err != nil {
		return nil, err
	}
	snap, err := decodeSnapshotFile(img)
	if err != nil || snap.LastIncluded != meta.LastIncluded || snap.GroupCount() != meta.GroupCount() {
		// A bad assembled image means the staged prefix mixed donors or
		// rotted; drop it so the retry restarts from byte 0.
		stage.discard()
		if err == nil {
			err = fmt.Errorf("assembled snapshot does not match its advertisement")
		}
		return nil, err
	}
	return &snap, nil
}

// pullStage accumulates the image — in DataDir/snapshots/pull-<cut>.part
// when durability is enabled (each chunk fsynced, so a kill -9 at any chunk
// boundary resumes from the staged size), in memory otherwise.
type pullStage struct {
	fs   vfs.FS
	f    vfs.File
	path string
	mem  []byte
	size uint64
}

func (r *Replica) openPullStage(meta wire.SnapshotMeta) (*pullStage, error) {
	if r.snapDisk == nil {
		return &pullStage{}, nil
	}
	fsys := r.snapDisk.fs
	if err := fsys.MkdirAll(r.snapDisk.dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(r.snapDisk.dir, pullPartName(meta.LastIncluded))
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close() // best-effort: the stage is abandoned on this path
		return nil, err
	}
	size := uint64(st.Size())
	if size > meta.TotalBytes {
		// Staged for a differently sized image of the same cut: start over.
		if err := f.Truncate(0); err != nil {
			_ = f.Close() // best-effort: the stage is abandoned on this path
			return nil, err
		}
		size = 0
	}
	if size > 0 {
		r.transferResumed.Add(size)
	}
	if _, err := f.Seek(int64(size), 0); err != nil {
		_ = f.Close() // best-effort: the stage is abandoned on this path
		return nil, err
	}
	return &pullStage{fs: fsys, f: f, path: path, size: size}, nil
}

func (s *pullStage) append(data []byte) error {
	if s.f == nil {
		s.mem = append(s.mem, data...)
		s.size += uint64(len(data))
		return nil
	}
	if _, err := s.f.Write(data); err != nil {
		return err
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	s.size += uint64(len(data))
	return nil
}

func (s *pullStage) bytes() ([]byte, error) {
	if s.f == nil {
		return s.mem, nil
	}
	buf := make([]byte, s.size)
	if _, err := s.f.ReadAt(buf, 0); err != nil {
		return nil, err
	}
	return buf, nil
}

// close releases the file handle but keeps the staged bytes — resume state
// for the next attempt. The file itself is cleaned up by snapDisk.gc once a
// manifest at or above its cut commits.
func (s *pullStage) close() {
	if s.f != nil {
		// best-effort: every staged byte was already fsynced by append, so a
		// close error cannot lose resume state.
		_ = s.f.Close()
		s.f = nil
	}
}

// discard drops the staged bytes (verification failure: restart from 0).
func (s *pullStage) discard() {
	s.close()
	s.mem = nil
	if s.path != "" {
		// best-effort: a leftover stage is re-truncated by the next pull.
		_ = s.fs.Remove(s.path)
	}
}
