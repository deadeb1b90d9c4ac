package main

import (
	"gosmr/internal/storage"
	"gosmr/internal/wire"
)

// probeStorage: the replicated log's bookkeeping per instance — Accept then
// MarkDecided, truncated the way snapshots truncate it.
func probeStorage(p *probes) error {
	l := storage.NewLog()
	value := p.fullBatch()
	next := wire.InstanceID(0)
	p.m["storage.accept_decide_ns"] = p.perOp("storage.AcceptDecide", 4096, func(n int) {
		for range n {
			l.Accept(next, 0, value)
			l.MarkDecided(next, nil)
			next++
		}
		l.TruncateBelow(next)
	})
	return nil
}
