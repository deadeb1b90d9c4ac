package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"gosmr/internal/snapshot"
	"gosmr/internal/wire"
)

// persistTestSnap commits state as a single full generation cut at cut,
// in 4-byte chunks — the test-side stand-in for a drained cut.
func persistTestSnap(t *testing.T, d *snapDisk, cut wire.InstanceID, state, rc string) *Snapshot {
	t.Helper()
	topo := wire.EncodeTopology(&wire.Topology{Groups: 1, Peers: []string{"p0"}})
	snap := newSnapshot(nil, cut, 1, topo, true,
		snapshot.SplitBlob([]byte(state), 4), snapshot.SplitBlob([]byte(rc), 4))
	if err := d.appendGen(snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestLoadNewestSnapshotReportsSkips pins the skip-reporting contract: an
// unreadable newest manifest must not be silently passed over — the loader
// falls back to the older intact chain, names what it skipped (so the
// boot-time "clear the data dir" refusal can tell the operator why the cuts
// outran the usable snapshot), and quarantines the dead manifest to
// <name>.corrupt so the next scan neither re-trips nor re-logs it.
func TestLoadNewestSnapshotReportsSkips(t *testing.T) {
	dir := t.TempDir()
	d := newSnapDisk(dir, nil)
	older := persistTestSnap(t, d, 9, "old-state", "rc")
	// A newer manifest torn mid-write: the CRC cannot match.
	corruptName := manifestName(19)
	if err := os.WriteFile(filepath.Join(dir, corruptName), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	snap, skipped, err := newSnapDisk(dir, nil).loadNewest()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Cut != 9 {
		t.Fatalf("loaded snapshot = %+v, want fallback with cut 9", snap)
	}
	// The loaded snapshot is the persisted one: same manifest bytes, and
	// chunk for chunk the same data.
	if !bytes.Equal(snap.enc, older.enc) || len(snap.chunks) != len(older.chunks) {
		t.Fatalf("fallback manifest differs from the persisted one")
	}
	for i := range older.chunks {
		if !bytes.Equal(snap.chunks[i], older.chunks[i]) {
			t.Fatalf("fallback chunk %d = %q, want %q", i, snap.chunks[i], older.chunks[i])
		}
	}
	if len(skipped) != 1 || skipped[0] != corruptName {
		t.Fatalf("skipped = %v, want [%s]", skipped, corruptName)
	}
	// The torn manifest was quarantined: renamed aside, preserved for
	// forensics, invisible to the next manifest scan.
	if _, err := os.Stat(filepath.Join(dir, corruptName)); !os.IsNotExist(err) {
		t.Fatalf("torn manifest still in namespace after quarantine (stat err %v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, corruptName+".corrupt")); err != nil {
		t.Fatalf("quarantined manifest missing: %v", err)
	}
	if snap, skipped, err = newSnapDisk(dir, nil).loadNewest(); err != nil ||
		snap == nil || snap.Cut != 9 || len(skipped) != 0 {
		t.Fatalf("re-scan after quarantine: snap=%+v skipped=%v err=%v, want cut 9 and no skips", snap, skipped, err)
	}

	// A manifest referencing a torn chunk file skips the same way.
	bad := persistTestSnap(t, d, 19, "newer-bad", "")
	if err := os.WriteFile(d.layout(&bad.Manifest).path(0), []byte("xx"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, skipped, err = newSnapDisk(dir, nil).loadNewest()
	if err != nil || snap == nil || snap.Cut != 9 {
		t.Fatalf("torn chunk: snap=%+v err=%v, want fallback with cut 9", snap, err)
	}
	if len(skipped) != 1 || skipped[0] != manifestName(19) {
		t.Fatalf("torn chunk: skipped = %v, want [%s]", skipped, manifestName(19))
	}

	// All-intact directory: nothing skipped, reply cache round-trips.
	persistTestSnap(t, d, 29, "new", "rc2")
	snap, skipped, err = newSnapDisk(dir, nil).loadNewest()
	if err != nil || snap == nil || snap.Cut != 29 || len(skipped) != 0 {
		t.Fatalf("after repair: snap=%+v skipped=%v err=%v, want cut 29 and no skips", snap, skipped, err)
	}
	if rc := snapshot.JoinChunks(snap.rc()); string(rc) != "rc2" {
		t.Fatalf("reply cache = %q, want rc2", rc)
	}

	// Empty/missing directory stays a clean no-snapshot boot.
	snap, skipped, err = newSnapDisk(filepath.Join(dir, "nope"), nil).loadNewest()
	if err != nil || snap != nil || skipped != nil {
		t.Fatalf("missing dir: snap=%v skipped=%v err=%v, want nil/nil/nil", snap, skipped, err)
	}
}

// TestGCSparesStagedGenerations: a commit collects generation directories
// no retained manifest references, except those cut above it — a pull in
// progress stages there, and its chunks are its resume state.
func TestGCSparesStagedGenerations(t *testing.T) {
	dir := t.TempDir()
	d := newSnapDisk(dir, nil)
	staged := persistTestSnap(t, d, 29, "pulled", "")
	// Uncommit it: what is left is a staged pull at cut 29.
	if err := os.Remove(filepath.Join(dir, manifestName(29))); err != nil {
		t.Fatal(err)
	}
	stagedDir := d.layout(&staged.Manifest).dirs[0]
	old := persistTestSnap(t, d, 9, "a", "")
	persistTestSnap(t, d, 14, "b", "")
	persistTestSnap(t, d, 19, "c", "")
	if _, err := os.Stat(stagedDir); err != nil {
		t.Fatalf("staged generation above the newest commit was collected: %v", err)
	}
	if _, err := os.Stat(d.layout(&old.Manifest).dirs[0]); !os.IsNotExist(err) {
		t.Fatalf("generation of a dropped manifest survived gc (stat err %v)", err)
	}
	persistTestSnap(t, d, 39, "d", "")
	if _, err := os.Stat(stagedDir); !os.IsNotExist(err) {
		t.Fatalf("staged generation below the newest commit survived gc (stat err %v)", err)
	}
}
