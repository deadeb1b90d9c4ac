package main

import (
	"sync"

	"gosmr/internal/queue"
)

// probeQueue: one hand-off between two module threads through a bounded
// queue (producer goroutine → consumer goroutine), the cost every stage
// boundary of the pipeline pays per item.
func probeQueue(p *probes) error {
	q := queue.NewBounded[int]("probe", 1024)
	p.m["queue.handoff_ns"] = p.perOp("queue.PutTake", 16384, func(n int) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range n {
				if _, err := q.Take(nil); err != nil {
					return
				}
			}
		}()
		for i := range n {
			if err := q.Put(nil, i); err != nil {
				break
			}
		}
		wg.Wait()
	})
	q.Close()
	return nil
}
