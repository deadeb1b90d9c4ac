package core

import (
	"fmt"
	"log"
	"sync"
	"time"

	"gosmr/internal/snapshot"
	"gosmr/internal/wire"
)

// Snapshot transfer. Catch-up never ships a snapshot inline: the responder
// advertises SnapshotMeta, and the lagging replica pulls the snapshot in its
// one format — first the manifest, then every chunk the manifest names, by
// (cut, chunk index) — with SnapshotChunkReq/SnapshotChunk rounds. One
// request is outstanding at a time and each answer is one chunk, so the
// pull is self-clocked and nothing crosses the wire as a single unbounded
// unit. Each chunk is checked against its manifest entry (length and
// CRC32) before it is kept: a donor whose chain differs at the cut —
// forceFull can make two donors' chains differ — fails the check, and the
// chunk is asked of another peer. With a DataDir each chunk goes straight
// into its final generation directory, fsynced, so the install only commits
// the manifest; a broken pull, after a reconnect or a restart, skips the
// chunks already on disk that match the manifest.

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
	manifest bool
	index    int32
	ok       bool
	data     []byte
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
	case p.resp <- pulledChunk{manifest: m.Manifest, index: m.Index, ok: m.OK, data: data}:
	default:
	}
}

// serveSnapshotChunk answers a peer's request from the newest snapshot. Runs
// on the reader thread that decoded the request — a mutex-guarded pointer
// load, never blocking on I/O. Data borrows the immutable snapshot, which a
// newer one replaces but never rewrites. A request for another cut or out
// of range is refused (OK=false).
func (r *Replica) serveSnapshotChunk(peer int, m *wire.SnapshotChunkReq) {
	resp := wire.NewSnapshotChunk()
	resp.Cut, resp.Manifest, resp.Index = m.Cut, m.Manifest, m.Index
	if snap := r.snapshots.get(); snap != nil && snap.Cut == m.Cut {
		resp.Data, resp.OK = snap.piece(m.Manifest, m.Index, r.cfg.SnapshotChunkBytes)
	}
	r.enqueueSend(peer, 0, resp)
}

// pullSnapshot fetches the advertised snapshot: its manifest, then each
// chunk not already staged. Requests go to group 0's leader hint first and
// rotate through the peers on timeout, refusal or a failed check.
// Synchronous on the ServiceManager thread; aborts on shutdown. Staged
// chunks survive an error return — they are the resume state.
func (r *Replica) pullSnapshot(meta wire.SnapshotMeta) (*Snapshot, error) {
	r.puller.begin(meta.LastIncluded)
	defer r.puller.end()
	p := r.newPull(meta.LastIncluded)
	defer p.timer.Stop()

	enc, m, err := p.manifest()
	if err != nil {
		return nil, err
	}
	if int(m.Groups) != meta.GroupCount() {
		return nil, fmt.Errorf("snapshot %d has %d groups, advertised %d", m.Cut, m.Groups, meta.GroupCount())
	}
	var live map[string]bool
	var l layout
	if r.snapDisk != nil {
		// A damaged local manifest is what a transfer routes around, so it
		// does not block one: it protects no directory here, and boot
		// quarantines it. gc keeps everything while it is retained.
		if live, err = r.snapDisk.referenced(); err != nil {
			log.Printf("gosmr: pulling snapshot %d past an unreadable local %v", m.Cut, err)
		}
		l = r.snapDisk.layout(m)
	}
	snap := &Snapshot{Manifest: *m, enc: enc, chunks: make([][]byte, m.NumChunks())}
	for i := range snap.chunks {
		if r.snapDisk != nil {
			if c := r.snapDisk.staged(l, i); c != nil {
				snap.chunks[i] = c
				r.transferResumed.Add(uint64(len(c)))
				continue
			}
		}
		c, err := p.fetch(false, int32(i), m.Ref(i).Matches)
		if err != nil {
			return nil, err
		}
		if r.snapDisk != nil {
			if err := r.snapDisk.stage(l, i, c, live); err != nil {
				return nil, err
			}
			crashPoint("transfer-chunk")
		}
		snap.chunks[i] = c
	}
	if r.snapDisk != nil {
		if err := r.snapDisk.syncGens(l); err != nil {
			return nil, err
		}
	}
	return snap, nil
}

// pull is one pull's request state: the peer asked next and how many
// requests in a row went unanswered or failed their check.
type pull struct {
	r      *Replica
	cut    wire.InstanceID
	topo   *wire.Topology
	target int
	misses int
	timer  *time.Timer
}

func (r *Replica) newPull(cut wire.InstanceID) *pull {
	p := &pull{r: r, cut: cut, topo: r.topo.Load(), target: int(r.groups[0].leaderHint.Load()),
		timer: time.NewTimer(catchUpTimeout)}
	if p.target == r.cfg.ID || !p.topo.Active(p.target) {
		p.target = r.cfg.ID
		p.rotate()
	}
	return p
}

// rotate moves to the next active peer in ID order, wrapping; it skips self
// and removed IDs.
func (p *pull) rotate() {
	for range len(p.topo.Peers) {
		p.target = (p.target + 1) % len(p.topo.Peers)
		if p.target != p.r.cfg.ID && p.topo.Active(p.target) {
			return
		}
	}
}

// miss records a request that got nothing usable and moves to the next
// peer; the pull gives up after every peer failed several times in a row.
func (p *pull) miss() error {
	p.misses++
	p.rotate()
	if p.misses > 4*p.topo.N() {
		return fmt.Errorf("pull of snapshot %d stalled after %d failed requests", p.cut, p.misses)
	}
	return nil
}

// fetch asks peers for one piece until an answer passes check.
func (p *pull) fetch(manifest bool, idx int32, check func([]byte) bool) ([]byte, error) {
	for {
		req := wire.NewSnapshotChunkReq()
		req.Cut, req.Manifest, req.Index = p.cut, manifest, idx
		p.r.enqueueSend(p.target, 0, req)
		p.timer.Reset(catchUpTimeout)
	wait:
		select {
		case <-p.r.stop:
			return nil, fmt.Errorf("replica stopping")
		case c := <-p.r.puller.resp:
			if c.manifest != manifest || c.index != idx {
				goto wait // stale duplicate from an earlier round: ignore it
			}
			if c.ok && check(c.data) {
				if !manifest {
					p.misses = 0
				}
				return c.data, nil
			}
			// Refused (the peer moved past this cut) or not what the
			// manifest names (its chain differs): another peer.
		case <-p.timer.C:
		}
		if err := p.miss(); err != nil {
			return nil, err
		}
	}
}

// manifest fetches and decodes the snapshot's manifest: page 0 names the
// total size, and any further pages follow. Pages from peers whose
// manifests differ fail the decode, and the fetch starts over.
func (p *pull) manifest() ([]byte, *snapshot.Manifest, error) {
	for {
		enc, err := p.fetch(true, 0, func(b []byte) bool {
			_, err := snapshot.ManifestSize(b)
			return err == nil
		})
		if err != nil {
			return nil, nil, err
		}
		size, _ := snapshot.ManifestSize(enc)
		for page := len(enc); len(enc) < size; {
			want := min(page, size-len(enc))
			next, err := p.fetch(true, int32(len(enc)/page), func(b []byte) bool { return len(b) == want })
			if err != nil {
				return nil, nil, err
			}
			enc = append(enc, next...)
		}
		m, err := snapshot.DecodeManifest(enc)
		if err == nil && m.Cut == p.cut {
			p.misses = 0
			return enc, m, nil
		}
		if err := p.miss(); err != nil {
			return nil, nil, err
		}
	}
}
