package main

import "gosmr/internal/batch"

// probeBatch: the Batcher's work per request — Add until the 1300-byte
// budget is reached, then Flush (which encodes the batch value).
func probeBatch(p *probes) error {
	reqs := p.requests(64)
	b := batch.NewBuilder(batch.Policy{})
	p.m["batch.add_flush_ns_per_req"] = p.perOp("batch.AddFlush", len(reqs)*16, func(n int) {
		for i := range n {
			if b.Add(reqs[i%len(reqs)]) {
				b.Flush()
			}
		}
		b.Flush()
	})
	return nil
}
