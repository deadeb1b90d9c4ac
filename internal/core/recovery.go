package core

import (
	"errors"
	"fmt"
	"log"
	"path/filepath"
	"strings"

	"gosmr/internal/storage"
	"gosmr/internal/wal"
	"gosmr/internal/wire"
)

// Crash-restart recovery. With Config.DataDir set, each ordering group
// journals its acceptor state transitions to a write-ahead log
// (internal/wal) and every snapshot cut is committed as its manifest plus
// size-capped chunk files (snapdisk.go), laid out as
//
//	DataDir/
//	  snapshots/manifest-<merged index>.mf (the snapshot's manifest)
//	  snapshots/gen-<merged index>-<id>/   (chunk files of one generation)
//	  group-0/wal-00000001.seg ...         (per-group WAL segments)
//	  group-1/...
//
// Boot assembles the newest intact snapshot chain, replays each group's WAL
// suffix on top of its share of the covered prefix, and hands the rebuilt
// logs, views and merge position to the normal pipeline: the decided prefix
// re-executes from the snapshot (rebuilding service state and reply cache
// exactly), and anything decided by the rest of the cluster while this
// replica was down arrives through the existing catch-up path — no state
// transfer is needed for the locally durable prefix.

// walJournal adapts one group's WAL to the storage.Journal interface.
type walJournal struct{ w *wal.WAL }

func (j walJournal) JournalAccept(id wire.InstanceID, view wire.View, value []byte) {
	j.w.Append(wal.Record{Type: wal.RecAccept, ID: id, View: view, Value: value})
}

func (j walJournal) JournalDecide(id wire.InstanceID, value []byte, hasValue bool) {
	j.w.Append(wal.Record{Type: wal.RecDecide, ID: id, Value: value, HasValue: hasValue})
}

func (j walJournal) JournalCut(cut wire.InstanceID) {
	j.w.Append(wal.Record{Type: wal.RecCut, ID: cut})
}

// groupBoot is one group's recovered durable state.
type groupBoot struct {
	wal  *wal.WAL
	log  *storage.Log
	view wire.View
}

// bootState is everything recovery rebuilt before the pipeline starts.
type bootState struct {
	snap   *Snapshot // newest durable snapshot, nil if none
	groups []groupBoot
	// topo is the on-disk topology to install when it refines the seed
	// (same epoch, committed BaseView); nil when the seed stands as-is.
	// recoverBoot refuses to boot at all when the disk's epoch is NEWER
	// than the seed — the operator must restart with the committed
	// topology, not a stale peer list.
	topo *wire.Topology
}

// closeWALs releases the opened WALs (Start error paths).
func (b *bootState) closeWALs() {
	if b == nil {
		return
	}
	for _, g := range b.groups {
		if g.wal != nil {
			g.wal.Close()
		}
	}
}

// recover opens the data directory and rebuilds per-group logs and views.
// The returned WALs have no journal attached yet (replay must not
// re-journal); the caller attaches them once the logs are final.
func (r *Replica) recoverBoot() (*bootState, error) {
	dir := r.cfg.DataDir
	b := &bootState{groups: make([]groupBoot, len(r.groups))}
	snap, skipped, err := r.snapDisk.loadNewest()
	if err != nil {
		return nil, err
	}
	// Track the newest topology the disk remembers (snapshot manifest and
	// per-group RecTopo records), to check against the configured seed.
	var diskTopo *wire.Topology
	consider := func(t *wire.Topology) {
		if t == nil {
			return
		}
		if diskTopo == nil || t.Epoch > diskTopo.Epoch ||
			(t.Epoch == diskTopo.Epoch && t.BaseView > diskTopo.BaseView) {
			diskTopo = t
		}
	}
	if snap != nil {
		if int(snap.Groups) != len(r.groups) {
			return nil, fmt.Errorf("core: data dir %s was written with %d ordering groups, replica configured with %d",
				dir, snap.Groups, len(r.groups))
		}
		b.snap = snap
		t, terr := wire.DecodeTopology(snap.Topo)
		if terr != nil {
			return nil, fmt.Errorf("core: data dir %s: snapshot topology: %w", dir, terr)
		}
		consider(t)
	}
	r.quarantines.Add(uint64(len(skipped))) // manifests snapDisk renamed to *.corrupt
	for i := range r.groups {
		g := i // group index
		gdir := filepath.Join(dir, fmt.Sprintf("group-%d", g))
		opts := wal.Options{
			Dir:               gdir,
			FS:                r.cfg.FS,
			Policy:            r.cfg.SyncPolicy,
			RetainCheckpoints: r.cfg.WALRetainCheckpoints,
			RetainBytes:       r.cfg.WALRetainBytes,
			OnDurable: func(int64) {
				// Wake the group's Protocol thread so it releases the votes
				// gated on this sync. TryPut suffices: a full DispatcherQueue
				// means the thread is already awake and re-checks the durable
				// watermark after every event.
				_, _ = r.groups[g].dispatchQ.TryPut(event{kind: evDurable})
			},
			OnFault: func(err error) { r.enterFault(g, err) },
		}
		w, recs, err := wal.Open(opts)
		var ce *wal.CorruptError
		if errors.As(err, &ce) && len(r.cfg.PeerAddrs) > 1 {
			// A sealed segment below the tail fails its CRC: the durable
			// suffix above it is unreadable. With peers to refill from,
			// quarantine the log (rename every segment to *.corrupt) and
			// boot on the snapshot alone — anything the quarantined suffix
			// decided is re-fetched through catch-up or state transfer.
			// Single-replica clusters have no refill source, so there the
			// corruption stays a boot error instead of silent data loss.
			quarantined, qerr := wal.QuarantineSegments(r.cfg.FS, gdir)
			if qerr != nil {
				b.closeWALs()
				return nil, fmt.Errorf("core: group %d: quarantining corrupt WAL: %w (corrupt segment: %s)", g, qerr, ce.Segment)
			}
			r.quarantines.Add(uint64(len(quarantined)))
			log.Printf("gosmr: replica %d: group %d WAL segment %s is corrupt; quarantined %d segment(s), rejoining via catch-up",
				r.cfg.ID, g, ce.Segment, len(quarantined))
			w, recs, err = wal.Open(opts)
		}
		if err != nil {
			b.closeWALs()
			return nil, err
		}
		log := storage.NewLog()
		bootCut := wire.InstanceID(0)
		if b.snap != nil {
			bootCut = wire.GroupCut(b.snap.Cut, len(r.groups), g)
			log.CoverPrefix(bootCut)
		}
		view, gtopo, err := replayWAL(log, recs)
		if err != nil {
			w.Close()
			b.closeWALs()
			return nil, fmt.Errorf("core: group %d: %w", g, err)
		}
		consider(gtopo)
		if log.Base() > bootCut {
			// The WAL records a snapshot cut that is not on disk. With
			// persist-before-cut ordering no crash produces this state any
			// more (the snapshot chain is always committed — manifest
			// renamed — before any group journals its cut); reaching it
			// means a manifest or chunk file was corrupted or deleted after
			// the fact. State below the base is unrecoverable locally;
			// refuse to boot half-blind rather than silently execute from
			// the wrong prefix — and if intact-looking snapshots were
			// skipped on the way here, name them: a skipped newest snapshot
			// is by far the likeliest culprit.
			w.Close()
			b.closeWALs()
			detail := ""
			if len(skipped) > 0 {
				detail = fmt.Sprintf(" (quarantined unreadable snapshot manifest(s): %s — renamed to *.corrupt; see the preceding log lines for each decode error)",
					strings.Join(skipped, ", "))
			}
			return nil, fmt.Errorf("core: group %d WAL is cut at %d but the newest snapshot covers only %d; clear %s to rejoin via state transfer%s",
				g, log.Base(), bootCut, dir, detail)
		}
		b.groups[i] = groupBoot{wal: w, log: log, view: view}
	}
	if diskTopo != nil {
		seed := r.topo.Load()
		switch {
		case diskTopo.Epoch > seed.Epoch:
			// The disk committed a reconfiguration the seed config predates.
			// Booting with the stale peer list would put this replica in the
			// wrong epoch (every frame it sent would be dropped); refuse and
			// name both epochs so the operator restarts with the committed
			// topology.
			b.closeWALs()
			return nil, fmt.Errorf("core: data dir %s holds topology epoch %d, newer than the configured seed epoch %d; restart with the committed topology (the peer list changed)",
				dir, diskTopo.Epoch, seed.Epoch)
		case diskTopo.Epoch == seed.Epoch && diskTopo.BaseView > seed.BaseView:
			// Same epoch, but the disk remembers the committed base view the
			// operator's seed left zero; install the richer version.
			b.topo = diskTopo
		}
	}
	return b, nil
}

// replayWAL applies intact WAL records to log and returns the recovered
// view (the acceptor's durable promise: the highest view it ever adopted or
// accepted in) plus the newest epoch-stamped topology the log remembers
// (nil if the group never journaled one).
func replayWAL(log *storage.Log, recs []wal.Record) (wire.View, *wire.Topology, error) {
	var view wire.View
	var topo *wire.Topology
	for _, rec := range recs {
		switch rec.Type {
		case wal.RecView:
			if rec.View > view {
				view = rec.View
			}
		case wal.RecTopo:
			t, err := wire.DecodeTopology(rec.Value)
			if err != nil {
				return 0, nil, fmt.Errorf("wal replay: topology record: %w", err)
			}
			if topo == nil || t.Epoch > topo.Epoch {
				topo = t
			}
		case wal.RecCut, wal.RecCkpt:
			if rec.ID > log.Base() {
				log.CoverPrefix(rec.ID)
			}
		case wal.RecAccept:
			if rec.View > view {
				view = rec.View
			}
			if rec.ID >= log.Base() {
				log.Accept(rec.ID, rec.View, rec.Value)
			}
		case wal.RecDecide:
			if rec.ID < log.Base() {
				continue
			}
			if rec.HasValue {
				log.MarkDecided(rec.ID, rec.Value)
				continue
			}
			// Watermark decide: the value rides the earlier accept record.
			// The WAL is a prefix, so the accept is always there; tolerate
			// its absence anyway (catch-up refills) rather than deciding a
			// slot with no value.
			if e := log.Get(rec.ID); e != nil && (e.AcceptedView != storage.NoView || e.Decided) {
				log.MarkDecided(rec.ID, nil)
			}
		case wal.RecState:
			log.RestoreEntry(wire.InstanceState{
				ID:           rec.ID,
				AcceptedView: rec.View,
				Decided:      rec.Decided,
				Value:        rec.Value,
			})
		default:
			return 0, nil, fmt.Errorf("wal replay: unknown record type %d", rec.Type)
		}
	}
	return view, topo, nil
}

// suffixStates converts the log's retained acceptor state into checkpoint
// records for wal.Checkpoint.
func suffixStates(log *storage.Log) []wal.Record {
	states := log.SuffixFrom(log.Base())
	out := make([]wal.Record, 0, len(states))
	for _, st := range states {
		out = append(out, wal.Record{
			Type:    wal.RecState,
			ID:      st.ID,
			View:    st.AcceptedView,
			Decided: st.Decided,
			Value:   st.Value,
		})
	}
	return out
}
