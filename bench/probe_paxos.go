package main

import (
	"fmt"

	"gosmr/internal/paxos"
	"gosmr/internal/wire"
)

// probePaxos: three paxos.Nodes joined by a synchronous Effects loop — no
// threads, no transport, no encoding — deciding full batches one instance
// at a time: the protocol state machine's own cost and message count.
func probePaxos(p *probes) error {
	const n = 3
	nodes := make([]*paxos.Node, n)
	for i := range nodes {
		nodes[i] = paxos.NewNode(paxos.Options{ID: i, N: n})
	}
	type delivery struct {
		from, to int
		msg      wire.Message
	}
	var queue []delivery
	msgs, decided := 0, 0
	route := func(from int, e paxos.Effects) {
		if from == 0 {
			decided += len(e.Decisions)
		}
		for _, s := range e.Sends {
			if s.To != paxos.Broadcast {
				queue = append(queue, delivery{from, s.To, s.Msg})
				continue
			}
			for to := range nodes {
				if to != from {
					queue = append(queue, delivery{from, to, s.Msg})
				}
			}
		}
	}
	pump := func() {
		for len(queue) > 0 {
			d := queue[0]
			queue = queue[1:]
			msgs++
			route(d.to, nodes[d.to].HandleMessage(d.from, d.msg))
		}
	}
	for i, nd := range nodes {
		route(i, nd.Start())
	}
	pump()
	if !nodes[0].IsLeader() {
		return fmt.Errorf("probe paxos: node 0 did not establish leadership")
	}
	value := p.fullBatch()
	msgs, decided = 0, 0
	next := wire.InstanceID(0)
	p.m["paxos.decide_ns_per_instance"] = p.perOp("paxos.ProposeDecide", 2048, func(count int) {
		for range count {
			e, ok := nodes[0].ProposeBatch(value)
			if !ok {
				panic("probe paxos: window closed with nothing in flight")
			}
			route(0, e)
			pump()
			next++
		}
		// What a snapshot does for a real replica: without it the three logs
		// grow through the probe.
		for _, nd := range nodes {
			nd.TruncateLog(next - 1)
		}
	})
	if decided == 0 {
		return fmt.Errorf("probe paxos: nothing decided")
	}
	p.m["paxos.msgs_per_instance"] = float64(msgs) / float64(decided)
	return nil
}
