package main

import (
	"fmt"
	"path/filepath"

	"gosmr/internal/wal"
	"gosmr/internal/wire"
)

// probeWAL: the write-ahead log by itself, on the filesystem the benchmark's
// DataDirs use. Appending one accept record carrying a 1-KiB batch (the
// write_durable shape): without fsync (policy none), with an fsync per
// record (policy always — the bare cost group commit amortises), and the
// time to replay 10 000 such records at boot.
func probeWAL(p *probes) error {
	dir, cleanup, err := p.tempDir("probe-wal-")
	if err != nil {
		return err
	}
	defer cleanup()
	value := wire.EncodeBatch([]*wire.ClientRequest{{ClientID: clientIDBase, Seq: 1, Payload: p.putPayload(1024)}})
	rec := func(id int) wal.Record {
		return wal.Record{Type: wal.RecAccept, View: 1, ID: wire.InstanceID(id), Value: value}
	}

	// Policy none; the same log then serves the replay measurement.
	noneDir := filepath.Join(dir, "none")
	w, _, err := wal.Open(wal.Options{Dir: noneDir, Policy: wal.SyncNone, PreallocSpares: -1})
	if err != nil {
		return fmt.Errorf("probe wal: %w", err)
	}
	next := 0
	p.m["wal.append_ns"] = p.perOp("wal.Append", 1024, func(n int) {
		for range n {
			w.Append(rec(next))
			next++
		}
		w.Sync() // hand the buffered records to the OS (no fsync under this policy)
	})
	w.Close()
	if err := w.Failed(); err != nil {
		return fmt.Errorf("probe wal: %w", err)
	}
	var replayed int
	ns := p.once("wal.Open", func() {
		var recs []wal.Record
		w, recs, err = wal.Open(wal.Options{Dir: noneDir, Policy: wal.SyncNone, PreallocSpares: -1})
		replayed = len(recs)
	})
	if err != nil {
		return fmt.Errorf("probe wal: replay: %w", err)
	}
	w.Close()
	if replayed != next {
		return fmt.Errorf("probe wal: replayed %d of %d records", replayed, next)
	}
	p.m["wal.replay_ms_per_10k"] = ns / 1e6 * 10000 / float64(replayed)

	// Policy always: one fsync per append.
	w, _, err = wal.Open(wal.Options{Dir: filepath.Join(dir, "always"), Policy: wal.SyncAlways})
	if err != nil {
		return fmt.Errorf("probe wal: %w", err)
	}
	var syncNS []int64
	for i := 0; i < 64 && (i < 8 || sumInt64(syncNS) < int64(8*probeBudget)); i++ {
		syncNS = append(syncNS, int64(p.once("wal.AppendSync", func() { w.Append(rec(i)) })))
	}
	w.Close()
	if err := w.Failed(); err != nil {
		return fmt.Errorf("probe wal: %w", err)
	}
	sortInt64(syncNS)
	p.m["wal.append_sync_ms_p50"] = nsToMs(percentile(syncNS, 50))
	return nil
}

func sumInt64(s []int64) int64 {
	var t int64
	for _, v := range s {
		t += v
	}
	return t
}
