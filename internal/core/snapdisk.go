package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gosmr/internal/snapshot"
	"gosmr/internal/vfs"
	"gosmr/internal/wire"
)

// snapDisk owns the durable snapshot layout under DataDir/snapshots/. A
// snapshot lands on disk in its one format: its manifest's encoding is the
// commit record, and every chunk the manifest names is its own size-capped
// file in the directory of its generation:
//
//	snapshots/
//	  manifest-<cut>.mf      the manifest (internal/snapshot.Manifest)
//	  gen-<cut>-<id>/        one generation (full or delta), cut at <cut>
//	    svc-00000.chk ...    its chunks, each ≤ SnapshotChunkBytes
//	    rc-00000.chk ...     reply-cache chunks (newest generation only)
//
// A generation directory's name derives from the manifest's entry for it —
// the generation's cut and <id>, a checksum of its chunk list — so the
// manifest holds no paths, every manifest sharing a generation finds it in
// the same place, and two different generations at one cut never share a
// directory.
//
// The manifest rename is the commit point: chunk files are written and
// fsynced first (by the drainer for a local cut, by the pull for a
// transferred one), then the manifest (temp, fsync, rename, fsync dir)
// atomically switches boot to the new chain. A delta snapshot writes only
// its own generation directory and a manifest referencing the prior
// generations in place — steady-state disk traffic scales with churn, not
// with total state size.
//
// All methods run on the ServiceManager thread or its drainer goroutine
// (never both at once: the drain handle serializes them), so snapDisk needs
// no lock.
type snapDisk struct {
	dir string
	fs  vfs.FS
}

func newSnapDisk(dir string, fsys vfs.FS) *snapDisk {
	if fsys == nil {
		fsys = vfs.OS
	}
	return &snapDisk{dir: dir, fs: fsys}
}

func manifestName(cut wire.InstanceID) string {
	return fmt.Sprintf("manifest-%016x.mf", uint64(cut))
}

func genDirName(g snapshot.GenRef) string {
	var b [8]byte
	if g.Full {
		b[0] = 1
	}
	sum := crc32.ChecksumIEEE(b[:1])
	for _, c := range g.Chunks {
		binary.LittleEndian.PutUint32(b[:], c.Len)
		binary.LittleEndian.PutUint32(b[4:], c.CRC)
		sum = crc32.Update(sum, crc32.IEEETable, b[:])
	}
	return fmt.Sprintf("gen-%016x-%08x", uint64(g.Cut), sum)
}

// layout maps a manifest's chunks to their files.
type layout struct {
	m    *snapshot.Manifest
	dirs []string // each generation's directory
}

func (s *snapDisk) layout(m *snapshot.Manifest) layout {
	l := layout{m: m, dirs: make([]string, len(m.Gens))}
	for g, gr := range m.Gens {
		l.dirs[g] = filepath.Join(s.dir, genDirName(gr))
	}
	return l
}

// path is where chunk i lives.
func (l layout) path(i int) string {
	g, j := l.m.Locate(i)
	if g == len(l.m.Gens) {
		return filepath.Join(l.dirs[g-1], fmt.Sprintf("rc-%05d.chk", j))
	}
	return filepath.Join(l.dirs[g], fmt.Sprintf("svc-%05d.chk", j))
}

// appendGen commits one locally cut snapshot: writes the chunk files of its
// newest generation and of the reply cache, fsyncs them and their
// directory, then commits the manifest. A delta's older generations are on
// disk already, where the manifest names them. The directory fsync is
// checked: a chunk whose directory entry is not durable is as good as
// unwritten, so its failure is a persist failure (degrade + retry), not
// noise to swallow.
func (s *snapDisk) appendGen(snap *Snapshot) error {
	l := s.layout(&snap.Manifest)
	gdir := l.dirs[len(l.dirs)-1]
	if err := s.fs.MkdirAll(gdir, 0o755); err != nil {
		return err
	}
	first := len(snap.chunks) - len(snap.RC) - len(snap.Gens[len(snap.Gens)-1].Chunks)
	for i := first; i < len(snap.chunks); i++ {
		if err := writeFileSync(s.fs, l.path(i), snap.chunks[i]); err != nil {
			return err
		}
	}
	if err := s.fs.SyncDir(gdir); err != nil {
		return err
	}
	return s.commit(snap)
}

// staged returns chunk i of a manifest being pulled when it is on disk
// already and matches its manifest entry — what a resumed pull skips — or
// nil.
func (s *snapDisk) staged(l layout, i int) []byte {
	data, err := s.fs.ReadFile(l.path(i))
	if err != nil || !l.m.Ref(i).Matches(data) {
		return nil
	}
	return data
}

// stage writes chunk i of a manifest being pulled straight into its
// generation directory and fsyncs it. It never writes into a directory a
// committed manifest references (live): such a generation is identical to
// the pulled one by its name, so a chunk missing there is damage to the
// committed chain, not something a pull may overwrite.
func (s *snapDisk) stage(l layout, i int, data []byte, live map[string]bool) error {
	path := l.path(i)
	gdir := filepath.Dir(path)
	if live[filepath.Base(gdir)] {
		return fmt.Errorf("chunk %d of snapshot %d is damaged in committed generation %s", i, l.m.Cut, gdir)
	}
	if err := s.fs.MkdirAll(gdir, 0o755); err != nil {
		return err
	}
	return writeFileSync(s.fs, path, data)
}

// syncGens fsyncs the generation directories of a fully staged manifest, so
// every chunk's directory entry is durable before the commit. It makes each
// directory first: a generation with no chunks (a delta cut of a clean
// store) gets none from stage, and boot must still find every directory the
// manifest names.
func (s *snapDisk) syncGens(l layout) error {
	for _, gdir := range l.dirs {
		if err := s.fs.MkdirAll(gdir, 0o755); err != nil {
			return err
		}
		if err := s.fs.SyncDir(gdir); err != nil {
			return err
		}
	}
	return nil
}

func writeFileSync(fsys vfs.FS, path string, data []byte) error {
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close() // best-effort: the write error wins
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // best-effort: the sync error wins
		return err
	}
	return f.Close()
}

// commit durably commits snap's manifest (temp, fsync, rename, fsync dir)
// and then collects what the retained manifests no longer need.
func (s *snapDisk) commit(snap *Snapshot) error {
	if err := s.fs.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(s.dir, manifestName(snap.Cut))
	tmp := path + ".tmp"
	if err := writeFileSync(s.fs, tmp, snap.enc); err != nil {
		return err
	}
	if err := s.fs.Rename(tmp, path); err != nil {
		return err
	}
	// Checked: until the rename's directory entry is durable the commit has
	// not happened — reporting success on a failed dir fsync would let WAL
	// checkpoints reference a snapshot a crash can un-commit.
	if err := s.fs.SyncDir(s.dir); err != nil {
		return err
	}
	s.gc(snap.Cut)
	return nil
}

// manifestFiles lists committed manifest names in ascending cut order.
func manifestFiles(fsys vfs.FS, dir string) ([]string, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		// Exact-suffix check first: Sscanf would prefix-match a torn
		// "manifest-....mf.tmp" left by a crash mid-persist — or a
		// quarantined "manifest-....mf.corrupt" — letting it count against
		// the two-newest retention and evict an intact fallback.
		if !strings.HasSuffix(e.Name(), ".mf") {
			continue
		}
		var u uint64
		if _, err := fmt.Sscanf(e.Name(), "manifest-%016x.mf", &u); err == nil {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// loadNewest assembles the newest intact snapshot chain, or nil when none
// exists, plus the names of any newer manifests it had to skip. A corrupt
// manifest or chunk file (a crash mid-write, bit rot) falls back to the
// previous manifest, but never silently: each skipped manifest is
// QUARANTINED — renamed to <name>.corrupt, preserving the bytes for
// forensics while taking them out of the manifest namespace — so later
// boots neither re-scan nor re-log it, and the retention policy cannot
// count a dead manifest against the two-newest window. A skipped newest
// snapshot can still make boot fall behind the WALs' cuts, so each
// quarantine is logged with its decode error and the names are returned for
// the refusal message.
func (s *snapDisk) loadNewest() (*Snapshot, []string, error) {
	names, err := manifestFiles(s.fs, s.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	var skipped []string
	for i := len(names) - 1; i >= 0; i-- {
		snap, err := s.loadManifest(names[i])
		if err != nil {
			path := filepath.Join(s.dir, names[i])
			if rerr := s.fs.Rename(path, path+".corrupt"); rerr != nil {
				log.Printf("gosmr: skipping snapshot %s: %v (quarantine failed: %v)", path, err, rerr)
			} else {
				// best-effort: if the rename's dir entry is lost to a crash
				// the next boot just quarantines again.
				_ = s.fs.SyncDir(s.dir)
				log.Printf("gosmr: quarantined unreadable snapshot %s -> %s.corrupt: %v", path, names[i], err)
			}
			skipped = append(skipped, names[i])
			continue
		}
		return snap, skipped, nil
	}
	return nil, skipped, nil
}

// loadManifest reads a committed manifest and every chunk it names, each
// verified against its entry, into the snapshot boot restores.
func (s *snapDisk) loadManifest(name string) (*Snapshot, error) {
	enc, err := s.fs.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return nil, err
	}
	m, err := snapshot.DecodeManifest(enc)
	if err != nil {
		return nil, err
	}
	if manifestName(m.Cut) != name {
		return nil, fmt.Errorf("manifest %s holds cut %d", name, m.Cut)
	}
	snap := &Snapshot{Manifest: *m, enc: enc, chunks: make([][]byte, m.NumChunks())}
	l := s.layout(m)
	for i := range snap.chunks {
		path := l.path(i)
		data, err := s.fs.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if !m.Ref(i).Matches(data) {
			return nil, fmt.Errorf("chunk %s: size/checksum mismatch", path)
		}
		snap.chunks[i] = data
	}
	return snap, nil
}

// referenced returns the generation directories the two retained (newest)
// manifests name. A retained manifest that cannot be read or decoded names
// nothing in the map, and the first such error is returned alongside it.
func (s *snapDisk) referenced() (map[string]bool, error) {
	names, err := manifestFiles(s.fs, s.dir)
	if os.IsNotExist(err) {
		err = nil
	}
	live := make(map[string]bool)
	for _, name := range names[max(0, len(names)-2):] {
		data, rerr := s.fs.ReadFile(filepath.Join(s.dir, name))
		var m *snapshot.Manifest
		if rerr == nil {
			m, rerr = snapshot.DecodeManifest(data)
		}
		if rerr != nil {
			if err == nil {
				err = fmt.Errorf("manifest %s: %w", name, rerr)
			}
			continue
		}
		for _, g := range m.Gens {
			live[genDirName(g)] = true
		}
	}
	return live, err
}

// gc prunes everything the two newest manifests do not reference: older
// manifests, orphaned generation directories and stale temp files.
// Keeping the second-newest manifest covers a crash interleaved with the
// WAL checkpoints that reference it. A generation cut above the newest
// commit survives too: it belongs to a pull in progress — kept for resume —
// or to a cut whose commit failed, and goes once a manifest at or above its
// cut commits. Best-effort: gc errors never fail a commit.
func (s *snapDisk) gc(newest wire.InstanceID) {
	names, err := manifestFiles(s.fs, s.dir)
	if err != nil {
		return
	}
	for _, name := range names[:max(0, len(names)-2)] {
		// best-effort (this whole pass is): a lingering old manifest is
		// re-collected after the next commit.
		_ = s.fs.Remove(filepath.Join(s.dir, name))
	}
	// If a surviving manifest does not decode, keep all generation
	// directories — deleting blind risks the next boot's fallback.
	live, err := s.referenced()
	if err != nil {
		return
	}
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		var cut uint64
		switch {
		case e.IsDir() && strings.HasPrefix(name, "gen-") && !live[name]:
			if _, err := fmt.Sscanf(name, "gen-%016x-", &cut); err == nil && wire.InstanceID(cut) > newest {
				continue
			}
			// best-effort: an orphaned generation dir costs space, not
			// correctness, and is retried next commit.
			_ = s.fs.RemoveAll(filepath.Join(s.dir, name))
		case strings.HasSuffix(name, ".tmp"):
			// best-effort: same.
			_ = s.fs.Remove(filepath.Join(s.dir, name))
		}
	}
}
