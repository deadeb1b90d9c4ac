package main

import "gosmr/internal/replycache"

// probeReplyCache: what every ordered request pays in the sharded reply
// cache — one Lookup by a ClientIO worker, one Update after execution —
// over the benchmark's 512 client IDs.
func probeReplyCache(p *probes) error {
	c := replycache.NewSharded()
	reply := []byte{1}
	seq := uint64(0)
	p.m["replycache.lookup_update_ns"] = p.perOp("replycache.LookupUpdate", 8192, func(n int) {
		for i := range n {
			client := clientIDBase + uint64(i%512)
			if i%512 == 0 {
				seq++
			}
			c.Lookup(nil, client, seq)
			c.Update(nil, client, seq, reply)
		}
	})
	return nil
}
