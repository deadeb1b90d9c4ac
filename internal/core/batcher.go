package core

import (
	"time"

	"gosmr/internal/batch"
	"gosmr/internal/profiling"
	"gosmr/internal/wire"
)

// runBatcher is one ordering group's Batcher thread (Sec. V-C1): it drains
// the group's RequestQueue, forms batches, and feeds the group's
// ProposalQueue. Building batches here — concurrently with the ordering
// protocol — takes that work off the Protocol thread's critical path.
//
// The Protocol thread clocks the hand-off (the pull rule, see canPropose): a
// batch is cut the moment its leader could propose it and carries whatever
// has arrived by then; while the window is full it keeps growing, up to
// Batch.MaxBytes, until a slot frees. Batch.MaxDelay bounds only a batch whose
// leader cannot propose.
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
		// Pulled — the Protocol thread can propose (standing hint), or asked
		// for this batch (a window slot freed, or alignGroup has a merge row
		// to fill): take what is already queued, without blocking, and
		// flush. Otherwise keep filling until the cap or the delay runs out.
		for !full {
			var next *wire.ClientRequest
			ok := false
			if g.canPropose.Load() || g.openBatch.Load() == batchCutAsked {
				next, ok = g.requestQ.TryTake()
			} else if remaining := time.Until(b.Deadline()); remaining > 0 {
				next, ok, _ = g.requestQ.Poll(th, remaining) // closed reads as !ok
			}
			if !ok {
				break // drained, expired or shutting down: flush what we have
			}
			if next != nil { // nil: cutOpenBatch's wake-up, the flags say why
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
		// The ProposalQueue is not empty now, so the hint is spent; the nudge
		// below makes the Protocol thread take the batch and republish it.
		g.canPropose.Store(false)
		// Nudge the Protocol thread; if the DispatcherQueue is busy it will
		// drain the ProposalQueue on its next event anyway.
		_, _ = g.dispatchQ.TryPut(event{kind: evProposalReady})
	}
}
