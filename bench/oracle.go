package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"gosmr/internal/service"
)

// The oracle: what a reply and a replica's final state must look like for
// the run to count. A violation fails the run; no metric is printed.

// keyState is the oracle's view of every private key: the version of the
// last acknowledged write and of the last write issued. Keys have a single
// writer, so a linearizable read must return a version in
// [acked at read start, issued at read end].
type keyState struct {
	names   []string
	acked   []atomic.Uint64
	issued  []atomic.Uint64
	ackedAt []atomic.Int64 // generator clock of the last acknowledgement
}

// check is the per-reply oracle. Callers hold vc.mu.
func (g *gen) check(vc *vclient, payload []byte) error {
	o := &vc.op
	status, value := service.DecodeReply(payload)
	switch o.kind {
	case kindPut:
		if status != service.KVOK {
			return fmt.Errorf("status %d", status)
		}
		g.keys.ackedAt[o.key].Store(g.now())
		g.keys.acked[o.key].Store(o.ver)
	case kindGet:
		if status != service.KVOK || len(value) < valueHeader {
			return fmt.Errorf("status %d, %d value bytes", status, len(value))
		}
		ver := binary.LittleEndian.Uint64(value)
		key := int32(binary.LittleEndian.Uint32(value[8:]))
		upper := g.keys.issued[o.key].Load()
		if key != o.key || ver < o.ver || ver > upper {
			return fmt.Errorf("read key %d version %d, want key %d version in [%d,%d]", key, ver, o.key, o.ver, upper)
		}
	default:
		if status != service.KVOK {
			return fmt.Errorf("status %d", status)
		}
	}
	return nil
}

// awaitState polls the end-of-run oracle until it passes or timeout is up.
// Followers learn the last decisions from the next heartbeat, and a follower
// that fell a snapshot interval behind catches up by state transfer, so the
// state check must not race them; a replica that has really diverged still
// fails it when the time is up.
func (g *gen) awaitState(timeout time.Duration) error {
	var err error
	for deadline := time.Now().Add(timeout); ; time.Sleep(20 * time.Millisecond) {
		if err = g.verifyState(); err == nil || time.Now().After(deadline) {
			return err
		}
	}
}

// verifyState is the end-of-run oracle, asked of the KV instances the
// benchmark created. Private-key workloads: every key on every replica
// holds the last acknowledged write (or the one write still in flight when
// an op timed out). Skewed workload: all replicas hold identical contents
// and the account total is conserved.
func (g *gen) verifyState() error {
	w := g.w
	if w.skew {
		var ref []byte
		for i, kv := range g.c.kvs {
			snap, err := kv.Snapshot()
			if err != nil {
				return fmt.Errorf("oracle: replica %d snapshot: %w", i, err)
			}
			if i == 0 {
				ref = snap
			} else if !bytes.Equal(ref, snap) {
				return fmt.Errorf("oracle: replica %d state differs from replica 0", i)
			}
		}
		for i, kv := range g.c.kvs {
			var total uint64
			for _, a := range g.accts {
				_, v := service.DecodeReply(kv.Execute(service.EncodeGet(a)))
				total += service.DecodeBalance(v)
			}
			if want := uint64(len(g.accts)) * initBalance; total != want {
				return fmt.Errorf("oracle: replica %d account total %d, want %d", i, total, want)
			}
		}
		return nil
	}
	for i, kv := range g.c.kvs {
		for k, name := range g.keys.names {
			status, v := service.DecodeReply(kv.Execute(service.EncodeGet(name)))
			if status != service.KVOK || len(v) < valueHeader {
				return fmt.Errorf("oracle: replica %d key %s: status %d", i, name, status)
			}
			ver := binary.LittleEndian.Uint64(v)
			lo, hi := g.keys.acked[k].Load(), g.keys.issued[k].Load()
			if ver < lo || ver > hi {
				return fmt.Errorf("oracle: replica %d key %s holds version %d, acknowledged %d (issued %d)", i, name, ver, lo, hi)
			}
		}
	}
	return nil
}
