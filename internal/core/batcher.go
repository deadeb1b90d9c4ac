package core

import (
	"time"

	"gosmr/internal/batch"
	"gosmr/internal/profiling"
	"gosmr/internal/wire"
)

// runBatcher is one ordering group's Batcher thread (Sec. V-C1): it drains
// the group's RequestQueue, forms batches under the batching policy, and
// feeds the group's ProposalQueue. Building batches here — concurrently with
// the ordering protocol — takes that work off the Protocol thread's critical
// path; when the Protocol thread wants to start a ballot it simply takes a
// ready batch.
//
// Blocking on a full ProposalQueue is the second stage of the flow-control
// chain (Sec. V-E): a stalled Protocol thread stops the Batcher, which stops
// draining the RequestQueue, which stalls the ClientIO workers.
func (r *Replica) runBatcher(g *ordGroup) {
	defer r.wg.Done()
	th := r.profThread(gname("Batcher", g.idx))
	th.Transition(profiling.StateBusy)
	defer th.Transition(profiling.StateOther)

	b := batch.NewBuilder(r.cfg.Batch)
	// Requests reach this thread Retained (owned payloads) from the ClientIO
	// workers; once Flush copies them into the batch value their structs go
	// back to the decode pool.
	b.SetRecycle(func(req *wire.ClientRequest) { wire.Release(req) })
	for {
		// First request opens the batch (blocking take) and starts the
		// MaxDelay clock — an idle stretch before it never counts against
		// the batch's flush deadline.
		req, err := g.requestQ.Take(th)
		if err != nil {
			return
		}
		if req == nil {
			continue // cut wake-up for a batch that already flushed
		}
		g.openBatch.Store(batchOpen)
		full := b.Add(req)
		// Keep filling until the size budget or the batch delay runs out, or
		// the Protocol thread asks for the batch now: it has a slot to fill
		// that the merge is waiting on (alignGroup), and what is already
		// here should ride in it rather than wait out the delay behind a
		// no-op.
		for !full && g.openBatch.Load() != batchCutAsked {
			remaining := time.Until(b.Deadline())
			if remaining <= 0 {
				break
			}
			next, ok, err := g.requestQ.Poll(th, remaining)
			if err != nil {
				break // shutting down: flush what we have
			}
			if !ok {
				break // deadline expired
			}
			if next != nil { // nil: cutOpenBatch's wake-up, the flag says why
				full = b.Add(next)
			}
		}
		value := b.Flush()
		if value == nil {
			continue
		}
		r.batchesMade.Add(1)
		if err := g.proposalQ.Put(th, value); err != nil {
			return
		}
		g.openBatch.Store(batchIdle)
		// Nudge the Protocol thread; if the DispatcherQueue is busy it will
		// drain the ProposalQueue on its next event anyway.
		_, _ = g.dispatchQ.TryPut(event{kind: evProposalReady})
	}
}
