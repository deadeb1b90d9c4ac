package core

import (
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"gosmr/internal/batch"
	"gosmr/internal/service"
	"gosmr/internal/vfs"
	"gosmr/internal/wal"
)

// stallFS delays every File.Sync by *stall (0 = passthrough): a disk whose
// fsync is slow, with everything else about it healthy.
type stallFS struct {
	vfs.FS
	stall *atomic.Int64
}

func (s stallFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := s.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return stallFile{File: f, stall: s.stall}, nil
}

type stallFile struct {
	vfs.File
	stall *atomic.Int64
}

func (f stallFile) Sync() error {
	time.Sleep(time.Duration(f.stall.Load()))
	return f.File.Sync()
}

// TestOnlyVotesWaitForTheDisk drives a durable group-commit cluster through
// the one rule of the durable gate, with slow disks standing in for the
// fsync a kill -9 would interrupt. A stalled disk delays exactly the votes
// of its own acceptor: with only the leader's disk stalled the two followers
// decide and writes are acknowledged well inside the stall; with the
// leader's and one follower's disks stalled a single durable acceptor
// remains, so until a second disk syncs nothing is decided or acknowledged
// anywhere and no replica's DecidedUpTo moves — the leader does not count a
// vote its own disk does not hold.
func TestOnlyVotesWaitForTheDisk(t *testing.T) {
	const stall = 100 * time.Millisecond
	for _, tc := range []struct {
		name    string
		stalled []int
	}{
		{"leader stalled", []int{0}},
		{"leader and one follower stalled", []int{0, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			stalls := make([]atomic.Int64, 3)
			c := startAlignCluster(t, "gate"+fmt.Sprint(len(tc.stalled)), 0,
				func(int) Service { return service.NewKV() },
				func(i int, conf *Config) {
					conf.Batch = batch.Policy{MaxBytes: 1, MaxDelay: time.Millisecond}
					conf.DataDir = fmt.Sprintf("%s/r%d", dir, i)
					conf.SyncPolicy = wal.SyncBatch
					conf.FS = stallFS{FS: vfs.OS, stall: &stalls[i]}
				})
			conn, err := c.net.Dial(c.reps[0].cfg.ClientAddr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			seq := uint64(0)
			put := func() time.Duration {
				t.Helper()
				seq++
				t0 := time.Now()
				if err := sendPut(conn, 77, seq, fmt.Sprintf("k%d", seq)); err != nil {
					t.Fatal(err)
				}
				if _, err := readReply(conn); err != nil {
					t.Fatal(err)
				}
				return time.Since(t0)
			}
			for range 5 {
				put() // warm: leadership, connection, first WAL segment
			}
			for _, i := range tc.stalled {
				stalls[i].Store(int64(stall))
			}
			defer func() {
				for i := range stalls {
					stalls[i].Store(0) // let Stop's final WAL drain run at full speed
				}
			}()

			if len(tc.stalled) == 1 {
				for i := range 20 {
					if d := put(); d >= stall {
						t.Errorf("write %d acknowledged after %v: it waited for the leader's %v fsync", i, d, stall)
					}
				}
				// The leader's own votes are still behind its slow disk, and
				// the stats line says so.
				if n := c.reps[0].QueueStats()["DurableGate-g0"]; n < 1 {
					t.Errorf("DurableGate-g0 = %v on the stalled leader, want its own votes parked", n)
				}
				return
			}
			for i := range 3 {
				// Every earlier write is acknowledged, so the leader's watermark
				// covers all of them and its drain beat has told the followers.
				before := c.reps[0].DecidedUpTo()
				seq++
				t0 := time.Now()
				if err := sendPut(conn, 77, seq, fmt.Sprintf("k%d", seq)); err != nil {
					t.Fatal(err)
				}
				time.Sleep(stall / 2)
				for j, r := range c.reps {
					if got := r.DecidedUpTo(); got > before {
						t.Errorf("write %d: replica %d DecidedUpTo moved %d -> %d with one durable acceptor", i, j, before, got)
					}
				}
				if _, err := readReply(conn); err != nil {
					t.Fatal(err)
				}
				if d := time.Since(t0); d < stall {
					t.Errorf("write %d acknowledged after %v, before a second disk could sync (%v)", i, d, stall)
				}
			}
		})
	}
}
